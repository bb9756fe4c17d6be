"""Tests for FASTBC (Lemmas 8 and 10) and the repetition baselines."""

import pytest

from repro.algorithms.base import ilog2
from repro.algorithms.decay import decay_broadcast
from repro.algorithms.fastbc import fastbc_broadcast, make_fastbc_protocols
from repro.algorithms.repetition import (
    RepeatedFastBCProtocol,
    repeat_factor_log,
    repeat_factor_loglog,
    repeated_fastbc_broadcast,
)
from repro.core.faults import FaultConfig
from repro.gbst.gbst import build_gbst
from repro.topologies.basic import caterpillar, grid, path, star
from repro.util.rng import RandomSource


class TestFaultlessFastBC:
    def test_path_completes(self):
        outcome = fastbc_broadcast(path(32), rng=1)
        assert outcome.success

    def test_star_completes(self):
        outcome = fastbc_broadcast(star(16), rng=2)
        assert outcome.success

    def test_grid_completes(self):
        outcome = fastbc_broadcast(grid(5, 5), rng=3)
        assert outcome.success

    def test_caterpillar_completes(self):
        outcome = fastbc_broadcast(caterpillar(20, 1), rng=4)
        assert outcome.success

    def test_lemma8_diameter_linear_on_deep_path(self):
        """Faultless FASTBC on a path: D + O(log^2 n) — close to D."""
        n = 128
        outcome = fastbc_broadcast(path(n), rng=5)
        assert outcome.success
        # wave crosses one hop per 2 rounds once started; allow the
        # log^2 n additive start-up plus slack
        additive = 40 * (ilog2(n) + 1) ** 2
        assert outcome.rounds <= 2 * (n - 1) + additive

    def test_faultless_fastbc_beats_decay_on_deep_path(self):
        """The whole point of FASTBC: linear in D vs Decay's D log n."""
        n = 192
        fastbc_rounds = fastbc_broadcast(path(n), rng=6).rounds
        decay_rounds = decay_broadcast(path(n), rng=6).rounds
        assert fastbc_rounds < decay_rounds


class TestNoisyFastBC:
    """Lemma 10: FASTBC still completes but degrades to ~D log n."""

    @pytest.mark.parametrize(
        "faults",
        [FaultConfig.sender(0.4), FaultConfig.receiver(0.4)],
        ids=str,
    )
    def test_completes_under_faults(self, faults):
        outcome = fastbc_broadcast(path(24), faults=faults, rng=7)
        assert outcome.success

    def test_lemma10_degradation_on_path(self):
        """With faults the wave restarts cost Θ(log n) each: noisy FASTBC
        should lose its advantage over Decay on a deep path."""
        n = 128
        p = 0.5
        noisy_fast = fastbc_broadcast(
            path(n), faults=FaultConfig.receiver(p), rng=8
        )
        quiet_fast = fastbc_broadcast(path(n), rng=8)
        assert noisy_fast.success
        # Lemma 10: expected rounds ~ p/(1-p) D log n vs faultless ~ D:
        # demand at least a 2x degradation at this scale
        assert noisy_fast.rounds > 2 * quiet_fast.rounds


class TestProtocolFactory:
    def test_only_source_informed(self):
        net = path(6)
        protocols = make_fastbc_protocols(net, RandomSource(1))
        assert len(protocols) == 6
        assert protocols[net.source].informed
        informed = [p.informed for p in protocols]
        assert sum(informed) == 1


class TestRepetitionBaselines:
    def test_factors(self):
        assert repeat_factor_log(1024) == 11
        assert repeat_factor_loglog(1024) >= 2
        assert repeat_factor_log(1024) > repeat_factor_loglog(1024)

    def test_rejects_bad_repeat(self):
        net = path(4)
        tree = build_gbst(net).tree
        with pytest.raises(ValueError):
            RepeatedFastBCProtocol(0, tree, RandomSource(1), repeat=0)

    def test_repeated_broadcast_completes_under_faults(self):
        outcome = repeated_fastbc_broadcast(
            path(16),
            repeat=repeat_factor_loglog(16),
            faults=FaultConfig.receiver(0.4),
            rng=9,
        )
        assert outcome.success

    def test_repeat_one_is_plain_fastbc_schedule(self):
        net = path(8)
        tree = build_gbst(net).tree
        plain = make_fastbc_protocols(net, RandomSource(3))
        repeated = [
            RepeatedFastBCProtocol(
                v, tree, RandomSource(3).spawn(), repeat=1,
                informed=(v == net.source),
            )
            for v in net.nodes()
        ]
        # same wave schedule: fast-round actions agree for the source
        for t in range(0, 40, 2):
            assert (plain[0].act(t) is None) == (repeated[0].act(t) is None)

    def test_repetition_slows_faultless_run(self):
        plain = fastbc_broadcast(path(48), rng=10)
        slow = repeated_fastbc_broadcast(path(48), repeat=4, rng=10)
        assert slow.success
        assert slow.rounds > plain.rounds
