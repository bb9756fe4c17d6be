"""Tests for the shared algorithm scaffolding."""

import pytest

from repro.algorithms.base import BroadcastOutcome, budget_terms
from repro.core.faults import FaultConfig
from repro.core.trace import ChannelCounters
from repro.mac.config import MacConfig
from repro.topologies.basic import path
from repro.util.rng import RandomSource


class TestBroadcastOutcome:
    def test_informed_fraction(self):
        outcome = BroadcastOutcome(
            success=False,
            rounds=10,
            informed=3,
            total=4,
            counters=ChannelCounters(),
        )
        assert outcome.informed_fraction == 0.75

    def test_frozen(self):
        outcome = BroadcastOutcome(
            success=True, rounds=1, informed=1, total=1,
            counters=ChannelCounters(),
        )
        with pytest.raises(AttributeError):
            outcome.rounds = 2  # type: ignore[misc]


class TestBudgetTerms:
    def test_faultless_default_channel(self):
        # ilog2(9) + 1 = 5; the source sits at one end of the path
        assert budget_terms(path(9), FaultConfig.faultless(), None, None) == (
            5, 8, 1.0
        )

    def test_single_node_depth_is_at_least_one(self):
        assert budget_terms(path(1), FaultConfig.faultless(), None, None)[1] == 1

    def test_loss_and_contention_stretch_the_slowdown(self):
        mac = MacConfig()
        _, _, slowdown = budget_terms(
            path(9), FaultConfig.receiver(0.5), None, mac
        )
        assert slowdown == 2.0 * mac.planning_slowdown()


class TestIterBernoulli:
    def test_stream(self):
        rng = RandomSource(3)
        stream = rng.iter_bernoulli(0.5)
        draws = [next(stream) for _ in range(100)]
        assert any(draws) and not all(draws)
