"""Random linear network coding over GF(2^8), following Haeupler [24].

In RLNC multi-message broadcast, every packet on the air is a pair
``(coefficient vector, payload)`` where the payload is the corresponding
GF-linear combination of the k original messages. A node's knowledge is the
subspace spanned by the coefficient vectors it has received; it decodes once
that subspace has full dimension k.

Three objects implement this:

* :class:`RLNCEncoder` — one node's state; accumulates received coded
  packets and emits fresh *random* combinations of everything it knows.
* :class:`RLNCDecoder` — incremental Gaussian elimination that tracks the
  dimension of the known subspace and recovers the original messages at full
  rank. (Encoder embeds a decoder; the split exists so lower-bound
  experiments can count rank evolution without paying for re-encoding.)
* :class:`RLNCBank` — every node's state in one tensor, so that a gossip
  round emits all its coded rows with one combine and absorbs all its
  receptions with one elimination. :class:`RLNCDecoder` is its reference.

The innovation probability argument of the paper's Lemmas 12-13 needs a
field large enough that a random combination from a strictly-more-knowing
neighbor is non-innovative with at most constant probability; over GF(2^8)
that probability is 1/256 per reception.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.coding.gf256 import GF256
from repro.telemetry.metrics import METRICS as _METRICS
from repro.util.rng import RandomSource

__all__ = [
    "CodedPacket",
    "RLNCBank",
    "RLNCDecoder",
    "RLNCEncoder",
    "random_coefficients",
]

_M_RECEIVES = _METRICS.counter(
    "repro_rlnc_receives_total", "coded packets absorbed by decoders"
)
_M_INNOVATIVE = _METRICS.counter(
    "repro_rlnc_innovative_total", "receptions that advanced decoder rank"
)
_M_DECODES = _METRICS.counter(
    "repro_rlnc_decodes_total", "full-rank message-matrix recoveries"
)


@dataclass(frozen=True)
class CodedPacket:
    """A coded packet: coefficients over the k messages, plus the payload.

    ``coefficients`` has length k; ``payload`` is the same GF-linear
    combination applied to the message byte matrix (may be empty when an
    experiment tracks rank only).
    """

    coefficients: bytes
    payload: bytes

    @property
    def k(self) -> int:
        return len(self.coefficients)

    def coefficient_array(self) -> np.ndarray:
        return np.frombuffer(self.coefficients, dtype=np.uint8)

    def payload_array(self) -> np.ndarray:
        return np.frombuffer(self.payload, dtype=np.uint8)

    def is_zero(self) -> bool:
        # bytes iteration in C: no generator frame per coefficient
        return not any(self.coefficients)


def random_coefficients(k: int, rng: RandomSource) -> np.ndarray:
    """A uniformly random non-zero coefficient vector of length k."""
    while True:
        coeffs = rng.bytes_array(k)
        if coeffs.any():
            return coeffs


def _check_messages(messages: Sequence[bytes], k: int, payload_length: int) -> None:
    """Raise unless there are k messages, each ``payload_length`` bytes."""
    if len(messages) != k:
        raise ValueError(f"expected {k} messages, got {len(messages)}")
    for index, message in enumerate(messages):
        if len(message) != payload_length:
            raise ValueError(
                f"message {index} has length {len(message)}, "
                f"expected {payload_length}"
            )


class RLNCDecoder:
    """Incremental Gaussian elimination over received coded packets.

    Maintains a row-reduced basis of the received coefficient vectors with
    payloads carried along, so that rank and decoding are both O(k) per
    packet amortized.

    The default elimination kernel keeps the basis in *reduced* row
    echelon form so an incoming row eliminates against every existing
    pivot in a single batched table-lookup pass.  Constructing with
    ``reference=True`` selects the original per-column scalar loop
    (echelon-only basis) — the executable specification the vectorized
    kernel is cross-checked against.
    """

    def __init__(
        self, k: int, payload_length: int = 0, reference: bool = False
    ) -> None:
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        if payload_length < 0:
            raise ValueError("payload_length must be non-negative")
        self.k = k
        self.payload_length = payload_length
        # basis rows: coefficient part (k) | payload part (payload_length)
        self._basis = np.zeros((k, k + payload_length), dtype=np.uint8)
        # pivot_of[c] = basis row index whose pivot is column c, or -1
        self._pivot_of = np.full(k, -1, dtype=np.int32)
        # pivot_col[r] = pivot column of basis row r (insertion order)
        self._pivot_col = np.zeros(k, dtype=np.int32)
        # scratch row reused across receptions to avoid per-packet allocs
        self._row_scratch = np.empty(k + payload_length, dtype=np.uint8)
        self._rank = 0
        self.received_count = 0
        self.innovative_count = 0
        self._reference = reference
        self._eliminate = (
            self._reduce_and_insert_reference
            if reference
            else self._reduce_and_insert
        )

    @property
    def rank(self) -> int:
        """Dimension of the subspace of coefficient space known so far."""
        return self._rank

    def is_complete(self) -> bool:
        """True once k independent combinations have been received."""
        return self._rank == self.k

    def receive(self, packet: CodedPacket) -> bool:
        """Absorb a coded packet; return True iff it was innovative."""
        if packet.k != self.k:
            raise ValueError(
                f"packet is over {packet.k} messages, decoder expects {self.k}"
            )
        payload = packet.payload_array()
        if payload.size != self.payload_length:
            raise ValueError(
                f"payload length {payload.size} != {self.payload_length}"
            )
        return self.receive_raw(packet.coefficient_array(), payload)

    def receive_raw(self, coefficients: np.ndarray, payload: np.ndarray) -> bool:
        """Copy-free variant of :meth:`receive` for simulator hot paths.

        It skips :meth:`receive`'s length checks and fills a preallocated
        scratch row instead of concatenating. A full-rank decoder
        short-circuits: no reception can be innovative, so the elimination
        is skipped entirely — the regime that dominates long RLNC gossip
        runs.
        """
        self.received_count += 1
        if self._rank == self.k and not self._reference:
            if _METRICS.enabled:
                _M_RECEIVES.inc()
            return False
        row = self._row_scratch
        row[: self.k] = coefficients
        row[self.k :] = payload
        innovative = self._eliminate(row)
        if innovative:
            self.innovative_count += 1
        if _METRICS.enabled:
            _M_RECEIVES.inc()
            if innovative:
                _M_INNOVATIVE.inc()
        return innovative

    def _reduce_and_insert(self, row: np.ndarray) -> bool:
        """Batched elimination against a reduced-row-echelon basis.

        Because every stored row has 1 at its own pivot column and 0 at
        all other pivot columns, subtracting ``row[pivot_cols] @ basis``
        zeroes *all* pivot columns of ``row`` in one pass. If a nonzero
        coefficient survives, the row is normalized, back-substituted into
        the stored rows (keeping them reduced), and inserted. ``row`` may
        alias the scratch buffer; it is consumed.
        """
        rank = self._rank
        if rank:
            row ^= GF256.combine(row[self._pivot_col[:rank]], self._basis[:rank])
        head = row[: self.k]
        if not head.any():
            return False
        col = int(np.nonzero(head)[0][0])
        row = GF256.scale_vec(GF256.inv(int(row[col])), row)
        if rank:
            above = self._basis[:rank, col]
            if above.any():
                self._basis[:rank] ^= GF256.scale_rows(above, row[None, :])
        self._basis[rank] = row
        self._pivot_col[rank] = col
        self._pivot_of[col] = rank
        self._rank += 1
        return True

    def _reduce_and_insert_reference(self, row: np.ndarray) -> bool:
        """Original per-column elimination loop (echelon-only basis)."""
        for col in range(self.k):
            coeff = int(row[col])
            if coeff == 0:
                continue
            owner = int(self._pivot_of[col])
            if owner < 0:
                # new pivot: normalize and store
                inv = GF256.inv(coeff)
                row = GF256.scale_vec(inv, row)
                self._basis[self._rank] = row
                self._pivot_col[self._rank] = col
                self._pivot_of[col] = self._rank
                self._rank += 1
                # Back-substitute into earlier rows lazily at decode time;
                # keeping the basis merely in echelon form is enough for
                # rank queries, which dominate simulation time.
                return True
            row = row ^ GF256.scale_vec(coeff, self._basis[owner])
        return False

    def basis_coefficients(self) -> np.ndarray:
        """Copy of the current basis coefficient rows (rank x k)."""
        rows = [
            self._basis[int(self._pivot_of[c])][: self.k]
            for c in range(self.k)
            if self._pivot_of[c] >= 0
        ]
        if not rows:
            return np.zeros((0, self.k), dtype=np.uint8)
        return np.stack(rows, axis=0)

    def decode(self) -> np.ndarray:
        """Recover the (k, payload_length) message matrix at full rank."""
        if not self.is_complete():
            raise ValueError(
                f"cannot decode at rank {self._rank} < k = {self.k}"
            )
        # Full back-substitution: eliminate above-pivot entries.
        order = [int(self._pivot_of[c]) for c in range(self.k)]
        m = self._basis[order].copy()  # rows now sorted by pivot column
        for col in range(self.k - 1, -1, -1):
            pivot_row = col
            above = np.nonzero(m[:pivot_row, col])[0]
            for r in above:
                m[r] ^= GF256.scale_vec(int(m[r, col]), m[pivot_row])
        if _METRICS.enabled:
            _M_DECODES.inc()
        return m[:, self.k :]

    def decode_messages(self) -> list[bytes]:
        """Recover the original messages as byte strings."""
        matrix = self.decode()
        return [bytes(matrix[i].tobytes()) for i in range(self.k)]


class RLNCEncoder:
    """Per-node RLNC state: receive coded packets, emit fresh combinations.

    The source node is constructed with ``messages``; other nodes start
    empty and learn via :meth:`receive`.
    """

    def __init__(
        self,
        k: int,
        payload_length: int = 0,
        messages: Optional[Sequence[bytes]] = None,
    ) -> None:
        self.k = k
        self.payload_length = payload_length
        self.decoder = RLNCDecoder(k, payload_length)
        if messages is not None:
            _check_messages(messages, k, payload_length)
            for index, message in enumerate(messages):
                unit = np.zeros(k, dtype=np.uint8)
                unit[index] = 1
                self.decoder.receive_raw(
                    unit, np.frombuffer(message, dtype=np.uint8)
                )

    @property
    def rank(self) -> int:
        return self.decoder.rank

    def is_complete(self) -> bool:
        return self.decoder.is_complete()

    def can_transmit(self) -> bool:
        """A node with no knowledge has nothing (non-zero) to send."""
        return self.decoder.rank > 0

    def receive(self, packet: CodedPacket) -> bool:
        """Absorb a packet from the channel; True iff innovative."""
        return self.decoder.receive(packet)

    def emit(self, rng: RandomSource) -> CodedPacket:
        """Emit a uniformly random combination of everything known.

        The combination is over the node's basis rows; a node that knows an
        r-dimensional subspace emits a uniform random vector of that
        subspace (excluding, with retry, the zero vector).
        """
        if not self.can_transmit():
            raise ValueError("node has no coded information to transmit")
        basis = self.decoder._basis[: self.decoder.rank]
        # the basis rows are independent, so non-zero weights give a
        # non-zero coefficient part
        row = GF256.combine(random_coefficients(self.decoder.rank, rng), basis)
        return CodedPacket(
            coefficients=row[: self.k].tobytes(), payload=row[self.k :].tobytes()
        )

    def decode_messages(self) -> list[bytes]:
        """Recover the original k messages (requires full rank)."""
        return self.decoder.decode_messages()


class RLNCBank:
    """Every node's RLNC state in one (n, k, k + payload_length) tensor.

    Node ``v`` holds ``rank[v]`` basis rows, ``basis[v, :rank[v]]``, in
    insertion order, with pivot columns ``pivot_col[v, :rank[v]]``. They
    are in the reduced row echelon form :class:`RLNCDecoder` keeps: each
    row has 1 at its own pivot column and 0 at every other one. Rows past
    a node's rank stay zero, so arithmetic over all k rows of a node adds
    nothing from them.

    :meth:`emit` builds every emitter's coded row with one combine, and
    :meth:`receive` absorbs one row per receiver with one elimination.
    :class:`RLNCDecoder` is the reference: fed the same rows, each
    decoder ends with the same basis, pivots and rank as its bank node.

    Both gather the rows of the B nodes they touch, a (B, r, k + L)
    uint8 copy for r the largest rank among them. The combines over
    that stack keep their int32 lookup index at (B, k + L); the
    back-substitution scales the stacks of the innovative receivers with
    one (B, r, k + L) int32 lookup.
    """

    def __init__(self, n: int, k: int, payload_length: int = 0) -> None:
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        if payload_length < 0:
            raise ValueError("payload_length must be non-negative")
        self.k = k
        self.payload_length = payload_length
        self.basis = np.zeros((n, k, k + payload_length), dtype=np.uint8)
        self.pivot_col = np.zeros((n, k), dtype=np.int32)
        self.rank = np.zeros(n, dtype=np.int64)

    def load(self, node: int, messages: Sequence[bytes]) -> None:
        """Give an empty ``node`` the k messages, as k unit receptions would."""
        k = self.k
        _check_messages(messages, k, self.payload_length)
        self.basis[node, :, :k] = np.eye(k, dtype=np.uint8)
        if self.payload_length:
            self.basis[node, :, k:] = np.frombuffer(
                b"".join(messages), dtype=np.uint8
            ).reshape(k, self.payload_length)
        self.pivot_col[node] = np.arange(k)
        self.rank[node] = k
        if _METRICS.enabled:
            _M_RECEIVES.inc(k)
            _M_INNOVATIVE.inc(k)

    def emit(self, nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Coded rows ``weights[i] @ basis[nodes[i]]``, one per emitter.

        ``weights`` is (len(nodes), r) with r at least every emitter's
        rank, each row zero-padded past its emitter's rank.
        """
        return GF256.combine(weights, self.basis[nodes, : weights.shape[1]])

    def receive(self, nodes: np.ndarray, rows: np.ndarray) -> int:
        """Absorb ``rows[i]`` at ``nodes[i]``; return the innovative count.

        The nodes must be distinct: a listener hears at most one packet
        per round. Full-rank nodes are skipped, as
        :meth:`RLNCDecoder.receive` skips them.
        """
        received = len(nodes)
        open_rank = self.rank[nodes] < self.k
        if not open_rank.all():
            nodes, rows = nodes[open_rank], rows[open_rank]
        innovative = self._reduce_and_insert(nodes, rows) if len(nodes) else 0
        if _METRICS.enabled:
            _M_RECEIVES.inc(received)
            if innovative:
                _M_INNOVATIVE.inc(innovative)
        return innovative

    def _reduce_and_insert(self, nodes: np.ndarray, rows: np.ndarray) -> int:
        """:meth:`RLNCDecoder._reduce_and_insert` over every receiver at once.

        Eliminate each row against every pivot of its node, keep the rows
        with a non-zero coefficient left, normalize each on its first one,
        back-substitute it into its node's stored rows and insert it.
        """
        k = self.k
        ranks = self.rank[nodes]
        r = int(ranks.max())
        if r:
            pivots = self.pivot_col[nodes, :r]
            rows = rows ^ GF256.combine(
                np.take_along_axis(rows, pivots, axis=1), self.basis[nodes, :r]
            )
        nonzero = rows[:, :k] != 0
        fresh = nonzero.any(axis=1)
        if not fresh.all():
            nodes, rows = nodes[fresh], rows[fresh]
            ranks, nonzero = ranks[fresh], nonzero[fresh]
        count = len(nodes)
        if not count:
            return 0
        cols = nonzero.argmax(axis=1)
        rows = GF256.scale_rows(
            GF256.inv_vec(rows[np.arange(count), cols]), rows
        )
        r = int(ranks.max())
        if r:
            above = self.basis[nodes, :r, cols]
            self.basis[nodes, :r] ^= GF256.scale_rows(above, rows[:, None, :])
        self.basis[nodes, ranks] = rows
        self.pivot_col[nodes, ranks] = cols
        self.rank[nodes] = ranks + 1
        return count

    def decode_messages(self, node: int) -> list[bytes]:
        """Recover ``node``'s k messages (requires full rank).

        At full rank a reduced basis sorted by pivot column has the
        identity as its coefficient part, so its payloads are the messages.
        """
        if self.rank[node] < self.k:
            raise ValueError(
                f"cannot decode at rank {int(self.rank[node])} < k = {self.k}"
            )
        order = np.argsort(self.pivot_col[node])
        if _METRICS.enabled:
            _M_DECODES.inc()
        return [row[self.k :].tobytes() for row in self.basis[node, order]]
