"""Tests for the Decay algorithm (Lemmas 5, 6, 9)."""

import pytest

from repro.algorithms.base import ilog2
from repro.algorithms.decay import decay_broadcast
from repro.core.faults import FaultConfig
from repro.topologies.basic import grid, path, star
from repro.topologies.random_graphs import gnp
from repro.util.rng import RandomSource

from per_node import DecayProtocol, MessagePacket


class TestIlog2:
    def test_values(self):
        assert ilog2(1) == 0
        assert ilog2(2) == 1
        assert ilog2(3) == 2
        assert ilog2(1024) == 10

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            ilog2(0)


class TestProtocolMechanics:
    def test_uninformed_never_broadcasts(self):
        p = DecayProtocol(16, RandomSource(1), informed=False)
        assert all(p.act(t) is None for t in range(100))

    def test_informed_broadcasts_in_round_zero_of_phase(self):
        # probability 2^0 = 1 in the first round of each phase
        p = DecayProtocol(16, RandomSource(1), informed=True)
        assert p.act(0) is not None
        assert p.act(p.phase_length) is not None

    def test_becomes_informed_on_receive(self):
        p = DecayProtocol(16, RandomSource(1))
        assert not p.is_done()
        p.on_receive(3, MessagePacket(0), sender=5)
        assert p.is_done()
        assert p.active

    def test_broadcast_rate_halves_per_round_of_phase(self):
        rng = RandomSource(7)
        p = DecayProtocol(256, rng, informed=True)
        # round index 3 within phase -> probability 1/8
        hits = sum(p.act(3) is not None for _ in range(4000))
        assert 0.09 < hits / 4000 < 0.16


class TestFaultlessBroadcast:
    def test_path_completes(self):
        outcome = decay_broadcast(path(20), rng=1)
        assert outcome.success
        assert outcome.informed == 20

    def test_star_completes_fast(self):
        outcome = decay_broadcast(star(30), rng=2)
        assert outcome.success
        # one phase suffices: hub broadcasts alone with probability 1 at i=0
        assert outcome.rounds <= 2 * (ilog2(31) + 1)

    def test_grid_completes(self):
        outcome = decay_broadcast(grid(6, 6), rng=3)
        assert outcome.success

    def test_gnp_completes(self):
        outcome = decay_broadcast(gnp(40, 0.2, rng=4), rng=5)
        assert outcome.success

    def test_single_node(self):
        outcome = decay_broadcast(path(1), rng=0)
        assert outcome.success and outcome.rounds == 0

    def test_rounds_scale_with_diameter(self):
        """Lemma 6 shape: rounds grow roughly linearly in D·log n."""
        short = decay_broadcast(path(8), rng=11)
        long = decay_broadcast(path(64), rng=11)
        assert long.rounds > short.rounds * 3


class TestNoisyBroadcast:
    """Lemma 9: Decay still completes under either fault model."""

    @pytest.mark.parametrize("faults", [
        FaultConfig.sender(0.3),
        FaultConfig.receiver(0.3),
        FaultConfig.sender(0.6),
        FaultConfig.receiver(0.6),
    ], ids=str)
    def test_completes_under_faults(self, faults):
        outcome = decay_broadcast(path(16), faults=faults, rng=6)
        assert outcome.success

    def test_faults_slow_but_do_not_stop(self):
        quiet = decay_broadcast(path(24), rng=8)
        noisy_total = 0
        trials = 5
        for t in range(trials):
            noisy = decay_broadcast(
                path(24), faults=FaultConfig.receiver(0.5), rng=100 + t
            )
            assert noisy.success
            noisy_total += noisy.rounds
        # Lemma 9: ~1/(1-p) = 2x slowdown; allow wide tolerance but
        # demand a real gap
        assert noisy_total / trials > quiet.rounds

    def test_determinism(self):
        a = decay_broadcast(path(16), FaultConfig.receiver(0.4), rng=9)
        b = decay_broadcast(path(16), FaultConfig.receiver(0.4), rng=9)
        assert a.rounds == b.rounds

    def test_outcome_fields(self):
        outcome = decay_broadcast(path(4), rng=1)
        assert outcome.total == 4
        assert outcome.informed_fraction == 1.0
        assert outcome.counters.rounds == outcome.rounds
