"""Tests for Robust FASTBC (Theorem 11)."""

import pytest

from repro.algorithms.fastbc import fastbc_broadcast
from repro.algorithms.robust_fastbc import (
    RobustFastBCProtocol,
    block_size,
    make_robust_fastbc_protocols,
    robust_fastbc_broadcast,
)
from repro.core.faults import FaultConfig
from repro.gbst.gbst import build_gbst
from repro.topologies.basic import caterpillar, grid, path, star
from repro.util.rng import RandomSource


class TestBlockSize:
    def test_small_n(self):
        assert block_size(2) >= 1
        assert block_size(16) >= 1

    def test_grows_doubly_logarithmically(self):
        assert block_size(2**16) <= 2 * block_size(16) + 2
        assert block_size(2**32) > block_size(4)


class TestProtocolMechanics:
    def test_rejects_bad_multiplier(self):
        net = path(4)
        tree = build_gbst(net).tree
        with pytest.raises(ValueError):
            RobustFastBCProtocol(0, tree, RandomSource(1), round_multiplier=0)

    def test_rejects_bad_block(self):
        net = path(4)
        tree = build_gbst(net).tree
        with pytest.raises(ValueError):
            RobustFastBCProtocol(0, tree, RandomSource(1), block=0)

    def test_uninformed_is_silent(self):
        net = path(6)
        tree = build_gbst(net).tree
        p = RobustFastBCProtocol(3, tree, RandomSource(1))
        assert all(p.act(t) is None for t in range(60))

    def test_mod3_gating_on_even_rounds(self):
        """An active fast node only broadcasts when l ≡ t (mod 3), t the
        even-round index."""
        net = path(12)
        tree = build_gbst(net).tree
        p = RobustFastBCProtocol(
            0, tree, RandomSource(1), informed=True, block=2, round_multiplier=3
        )
        fired = []
        # scan past a full schedule period: 6*max_rank superrounds of
        # c*S even rounds each
        horizon = 4 * (6 * p.max_rank) * (3 * 2) * 2
        for r in range(0, horizon, 2):
            if p.act(r) is not None:
                fired.append(r // 2)
        assert fired, "the source's block must fire during its superround"
        assert all(t % 3 == p.level % 3 for t in fired)

    def test_factory(self):
        protocols = make_robust_fastbc_protocols(path(8), RandomSource(2))
        assert len(protocols) == 8
        assert sum(pr.informed for pr in protocols) == 1


class TestBroadcastCompletion:
    @pytest.mark.parametrize("topo", [path(24), star(12), grid(5, 5),
                                      caterpillar(12, 1)],
                             ids=lambda t: t.name)
    def test_faultless_completes(self, topo):
        outcome = robust_fastbc_broadcast(topo, rng=1)
        assert outcome.success

    @pytest.mark.parametrize("faults", [
        FaultConfig.sender(0.3),
        FaultConfig.receiver(0.3),
        FaultConfig.sender(0.6),
        FaultConfig.receiver(0.6),
    ], ids=str)
    def test_noisy_completes(self, faults):
        outcome = robust_fastbc_broadcast(path(24), faults=faults, rng=2)
        assert outcome.success

    def test_determinism(self):
        a = robust_fastbc_broadcast(path(16), FaultConfig.receiver(0.4), rng=5)
        b = robust_fastbc_broadcast(path(16), FaultConfig.receiver(0.4), rng=5)
        assert a.rounds == b.rounds


class TestTheorem11Shape:
    """The headline claim, measured as growth rates: under faults the
    per-hop cost of Robust FASTBC is (near-)constant in n, while plain
    FASTBC pays Θ(log n) per hop (Lemma 10). At laptop scales the
    asymptotic regime shows up as a slope difference in n, not as an
    absolute winner — see experiment E5's wave-only columns."""

    @staticmethod
    def _per_hop(broadcast, n, p, seeds=range(2)):
        total = 0
        for seed in seeds:
            outcome = broadcast(
                path(n),
                faults=FaultConfig.receiver(p),
                rng=seed,
                decay_interleave=False,  # isolate the wave mechanism
            )
            assert outcome.success
            total += outcome.rounds
        return total / len(list(seeds)) / (n - 1)

    def test_robust_wave_beats_plain_wave_under_faults(self):
        """The isolated wave comparison at n=384, p=0.5: plain pays a full
        Θ(log n) period per dropped hop; robust absorbs drops in-block."""
        p = 0.5
        n = 384
        plain = self._per_hop(fastbc_broadcast, n, p)
        robust = self._per_hop(robust_fastbc_broadcast, n, p)
        assert robust < plain

    def test_plain_wave_per_hop_grows_with_n_but_robust_does_not(self):
        p = 0.5
        small, large = 96, 384  # 2 doublings apart
        plain_growth = self._per_hop(fastbc_broadcast, large, p) - self._per_hop(
            fastbc_broadcast, small, p
        )
        robust_growth = self._per_hop(
            robust_fastbc_broadcast, large, p
        ) - self._per_hop(robust_fastbc_broadcast, small, p)
        # plain degrades measurably with log n; robust stays flat (its
        # fixed polylog startup only amortizes away as n grows)
        assert plain_growth > 2.0
        assert robust_growth < plain_growth

    def test_faulty_robust_close_to_faultless_robust(self):
        """Faults should cost Robust FASTBC only a constant factor."""
        n = 160
        quiet = robust_fastbc_broadcast(path(n), rng=7)
        noisy = robust_fastbc_broadcast(
            path(n), faults=FaultConfig.receiver(0.3), rng=7
        )
        assert noisy.success
        assert noisy.rounds < 6 * quiet.rounds + 500
