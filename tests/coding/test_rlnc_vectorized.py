"""Cross-checks: vectorized RLNC kernels vs their scalar references.

The vectorized decoder keeps its basis in reduced row echelon form and
eliminates against every pivot in one batched pass; the reference decoder
is the original per-column loop over an echelon-only basis. Both must
agree on every innovation verdict, on the rank trajectory, on the spanned
subspace, and on the decoded messages. The bank, which holds many nodes'
reduced bases in one tensor, must match one vectorized decoder per node
basis for basis.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.gf256 import GF256
from repro.coding.rlnc import (
    CodedPacket,
    RLNCBank,
    RLNCDecoder,
    RLNCEncoder,
    random_coefficients,
)
from repro.util.rng import RandomSource


class TestDecoderEquivalence:
    def test_verdicts_rank_and_decode_match_reference(self):
        rng = RandomSource(0xD0C)
        for trial in range(60):
            k = rng.randint(1, 24)
            payload_length = rng.randint(0, 24)
            vectorized = RLNCDecoder(k, payload_length)
            reference = RLNCDecoder(k, payload_length, reference=True)
            for _ in range(3 * k):
                coefficients = rng.bytes_array(k)
                payload = rng.bytes_array(payload_length)
                got = vectorized.receive_raw(coefficients, payload)
                want = reference.receive_raw(coefficients.copy(), payload.copy())
                assert got == want, f"trial {trial}"
                assert vectorized.rank == reference.rank, f"trial {trial}"
            assert vectorized.received_count == reference.received_count
            assert vectorized.innovative_count == reference.innovative_count
            if vectorized.is_complete():
                assert np.array_equal(vectorized.decode(), reference.decode())

    def test_adversarial_dependent_rows(self):
        """Linear combinations of earlier receptions are never innovative."""
        k = 8
        rng = RandomSource(77)
        vectorized = RLNCDecoder(k)
        reference = RLNCDecoder(k, reference=True)
        seen: list[np.ndarray] = []
        for step in range(40):
            if seen and rng.bernoulli(0.5):
                weights = rng.bytes_array(len(seen))
                row = GF256.combine(weights, np.stack(seen))
            else:
                row = rng.bytes_array(k)
            seen.append(row.copy())
            got = vectorized.receive_raw(row.copy(), np.empty(0, dtype=np.uint8))
            want = reference.receive_raw(row.copy(), np.empty(0, dtype=np.uint8))
            assert got == want, f"step {step}"
            assert vectorized.rank == reference.rank

    def test_rref_invariant(self):
        """Every stored row has 1 at its own pivot and 0 at other pivots."""
        k = 12
        rng = RandomSource(5)
        decoder = RLNCDecoder(k, payload_length=4)
        while not decoder.is_complete():
            decoder.receive_raw(rng.bytes_array(k), rng.bytes_array(4))
        basis = decoder._basis
        for col in range(k):
            owner = int(decoder._pivot_of[col])
            assert owner >= 0
            column = basis[:k, col]
            assert column[owner] == 1
            assert not np.any(np.delete(column, owner))

    def test_full_rank_shortcut_counts_receptions(self):
        decoder = RLNCDecoder(k=2)
        assert decoder.receive(CodedPacket(b"\x01\x00", b""))
        assert decoder.receive(CodedPacket(b"\x00\x01", b""))
        assert decoder.is_complete()
        assert not decoder.receive(CodedPacket(b"\x05\x09", b""))
        assert decoder.received_count == 3
        assert decoder.innovative_count == 2

    def test_full_rank_shortcut_still_validates(self):
        decoder = RLNCDecoder(k=2, payload_length=2)
        decoder.receive(CodedPacket(b"\x01\x00", b"aa"))
        decoder.receive(CodedPacket(b"\x00\x01", b"bb"))
        with pytest.raises(ValueError):
            decoder.receive(CodedPacket(b"\x01", b"cc"))
        with pytest.raises(ValueError):
            decoder.receive(CodedPacket(b"\x01\x02", b"c"))


class TestEncoderEquivalence:
    def test_emit_spans_same_subspace_as_reference(self):
        """The emitter covers the source's subspace: a long emission run
        reconstructs full rank at a fresh decoder, which decodes the
        source messages."""
        rng = RandomSource(21)
        k = 6
        messages = [bytes(rng.bytes_array(8).tobytes()) for _ in range(k)]
        encoder = RLNCEncoder(k, 8, messages=messages)
        sink = RLNCDecoder(k, 8)
        emit_rng = RandomSource(33)
        for _ in range(20 * k):
            sink.receive(encoder.emit(emit_rng))
            if sink.is_complete():
                break
        assert sink.is_complete()
        assert sink.decode_messages() == messages

    def test_emit_partial_knowledge_stays_in_subspace(self):
        encoder = RLNCEncoder(k=5)
        unit = np.zeros(5, dtype=np.uint8)
        for index in (0, 3):
            unit[:] = 0
            unit[index] = 1
            encoder.decoder.receive_raw(unit, np.empty(0, dtype=np.uint8))
        rng = RandomSource(2)
        for _ in range(25):
            packet = encoder.emit(rng)
            coefficients = packet.coefficient_array()
            assert coefficients[1] == 0
            assert coefficients[2] == 0
            assert coefficients[4] == 0
            assert coefficients[0] != 0 or coefficients[3] != 0


class TestGF256Batched:
    def test_combine_matches_scalar_loop(self):
        rng = RandomSource(4)
        for _ in range(20):
            rank = rng.randint(1, 20)
            width = rng.randint(1, 32)
            weights = rng.bytes_array(rank)
            rows = rng.bytes_array(rank * width).reshape(rank, width)
            expected = np.zeros(width, dtype=np.uint8)
            for i in range(rank):
                expected ^= GF256.scale_vec(int(weights[i]), rows[i])
            assert np.array_equal(GF256.combine(weights, rows), expected)

    def test_combine_empty_basis(self):
        empty = np.zeros((0, 7), dtype=np.uint8)
        assert np.array_equal(
            GF256.combine(np.zeros(0, dtype=np.uint8), empty),
            np.zeros(7, dtype=np.uint8),
        )
        stack = GF256.combine(
            np.zeros((4, 0), dtype=np.uint8), np.zeros((4, 0, 7), dtype=np.uint8)
        )
        assert stack.shape == (4, 7) and not stack.any()

    def test_batch_axes_match_one_basis_at_a_time(self):
        rng = RandomSource(12)
        for batch, rank, width in ((3, 4, 7), (70, 16, 20), (2, 1, 1)):
            weights = rng.bytes_array(batch * rank).reshape(batch, rank)
            rows = rng.bytes_array(batch * rank * width).reshape(batch, rank, width)
            combined = GF256.combine(weights, rows)
            scaled = GF256.scale_rows(weights, rows)
            for b in range(batch):
                assert np.array_equal(combined[b], GF256.combine(weights[b], rows[b]))
                assert np.array_equal(scaled[b], GF256.scale_rows(weights[b], rows[b]))

    def test_scale_rows_matches_scale_vec(self):
        rng = RandomSource(6)
        scalars = rng.bytes_array(9)
        rows = rng.bytes_array(9 * 13).reshape(9, 13)
        batched = GF256.scale_rows(scalars, rows)
        for i in range(9):
            assert np.array_equal(
                batched[i], GF256.scale_vec(int(scalars[i]), rows[i])
            )


def _draw_row(draw, width, seen):
    """One incoming row: random, all-zero, or dependent on ``seen``."""
    kind = draw(st.sampled_from(["random", "zero", "dependent"]))
    if kind == "zero" or (kind == "dependent" and not seen):
        return np.zeros(width, dtype=np.uint8)
    if kind == "dependent":
        weights = np.array(
            draw(st.lists(st.integers(0, 255), min_size=len(seen),
                          max_size=len(seen))),
            dtype=np.uint8,
        )
        return GF256.combine(weights, np.stack(seen))
    return np.array(
        draw(st.lists(st.integers(0, 255), min_size=width, max_size=width)),
        dtype=np.uint8,
    )


class TestBankEquivalence:
    """RLNCBank against one reference RLNCDecoder per node."""

    @staticmethod
    def _assert_same(bank, decoders):
        for v, decoder in enumerate(decoders):
            r = decoder.rank
            assert bank.rank[v] == r
            assert np.array_equal(bank.basis[v, :r], decoder._basis[:r])
            assert np.array_equal(bank.pivot_col[v, :r], decoder._pivot_col[:r])
            assert not bank.basis[v, r:].any()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_receive_and_emit_match_decoders(self, data):
        n = data.draw(st.integers(1, 5), label="n")
        k = data.draw(st.integers(1, 12), label="k")
        payload_length = data.draw(st.sampled_from([0, 1, 5]), label="L")
        width = k + payload_length
        bank = RLNCBank(n, k, payload_length)
        decoders = [RLNCDecoder(k, payload_length) for _ in range(n)]
        seen = [[] for _ in range(n)]
        for _ in range(data.draw(st.integers(1, 3 * k + 2), label="rounds")):
            nodes = sorted(
                data.draw(st.sets(st.integers(0, n - 1), min_size=1), label="nodes")
            )
            rows = np.stack([_draw_row(data.draw, width, seen[v]) for v in nodes])
            verdicts = 0
            for v, row in zip(nodes, rows):
                seen[v].append(row.copy())
                verdicts += decoders[v].receive_raw(row[:k].copy(), row[k:].copy())
            assert bank.receive(np.array(nodes), rows.copy()) == verdicts
            self._assert_same(bank, decoders)
        emitters = [v for v in range(n) if bank.rank[v]]
        if emitters:
            ranks = bank.rank[emitters]
            weights = np.zeros((len(emitters), k), dtype=np.uint8)
            for i, v in enumerate(emitters):
                weights[i, : ranks[i]] = random_coefficients(
                    int(ranks[i]), RandomSource(v)
                )
            emitted = bank.emit(emitters, weights)
            for i, v in enumerate(emitters):
                r = int(ranks[i])
                want = GF256.combine(weights[i, :r], decoders[v]._basis[:r])
                assert np.array_equal(emitted[i], want)

    def test_load_matches_unit_receptions(self):
        k, length = 5, 3
        rng = RandomSource(9)
        messages = [bytes(rng.bytes_array(length).tobytes()) for _ in range(k)]
        bank = RLNCBank(3, k, length)
        bank.load(1, messages)
        encoder = RLNCEncoder(k, length, messages=messages)
        assert bank.rank.tolist() == [0, k, 0]
        assert np.array_equal(bank.basis[1], encoder.decoder._basis)
        assert np.array_equal(bank.pivot_col[1], encoder.decoder._pivot_col)
        assert bank.decode_messages(1) == messages

    def test_load_rejects_what_the_encoder_rejects(self):
        bank = RLNCBank(2, k=2, payload_length=2)
        for messages in ([b"aa"], [b"aa", b"b"]):
            with pytest.raises(ValueError) as bank_error:
                bank.load(0, messages)
            with pytest.raises(ValueError) as encoder_error:
                RLNCEncoder(2, 2, messages=messages)
            assert str(bank_error.value) == str(encoder_error.value)

    def test_decode_needs_full_rank(self):
        with pytest.raises(ValueError):
            RLNCBank(1, k=2).decode_messages(0)
