"""Tests for star schedules: the Lemma 15/16 Θ(log n) receiver-fault gap."""

import math

import pytest

from repro.algorithms.multi.star import star_adaptive_routing, star_rs_coding
from repro.core.faults import FaultConfig, FaultModel
from repro.runner import Scenario, run


class TestAdaptiveRouting:
    def test_faultless_takes_one_round_per_message(self):
        outcome = star_adaptive_routing(n_leaves=16, k=8, p=0.0, rng=1)
        assert outcome.success
        assert outcome.rounds == 8

    def test_receiver_faults_slow_it_down(self):
        outcome = star_adaptive_routing(n_leaves=64, k=16, p=0.5, rng=2)
        assert outcome.success
        # Lemma 15: ~log2(64) = 6 rounds per message at p = 1/2
        assert outcome.rounds >= 3 * 16

    def test_rounds_scale_with_log_n(self):
        """The per-message cost grows with log n (last-straggler effect)."""
        small = star_adaptive_routing(n_leaves=8, k=32, p=0.5, rng=3)
        large = star_adaptive_routing(n_leaves=512, k=32, p=0.5, rng=3)
        assert small.success and large.success
        # log2(512)/log2(8) = 3: expect roughly tripled per-message cost
        assert large.rounds > 1.8 * small.rounds

    def test_validation(self):
        with pytest.raises(ValueError):
            star_adaptive_routing(n_leaves=0, k=1, p=0.1)
        with pytest.raises(ValueError):
            star_adaptive_routing(n_leaves=4, k=0, p=0.1)
        with pytest.raises(ValueError):
            star_adaptive_routing(n_leaves=4, k=1, p=1.0)

    def test_budget_exhaustion_reports_failure(self):
        outcome = star_adaptive_routing(
            n_leaves=32, k=16, p=0.5, rng=4, max_rounds=5
        )
        assert not outcome.success
        assert outcome.rounds == 5

    def test_reception_counts_tracked(self):
        outcome = star_adaptive_routing(n_leaves=16, k=4, p=0.3, rng=5)
        assert outcome.min_receptions >= 4  # every leaf got all messages
        assert outcome.max_receptions >= outcome.min_receptions

    def test_sender_fault_model(self):
        outcome = star_adaptive_routing(
            n_leaves=16, k=4, p=0.3, rng=6, fault_model=FaultModel.SENDER
        )
        assert outcome.success


class TestRSCoding:
    def test_faultless_close_to_k_rounds(self):
        outcome = star_rs_coding(n_leaves=16, k=8, p=0.0, rng=1)
        assert outcome.success
        assert outcome.rounds == 8

    def test_receiver_faults_constant_overhead(self):
        """Lemma 16: Θ(k) rounds — about k/(1-p) plus a log n tail."""
        k = 32
        outcome = star_rs_coding(n_leaves=64, k=k, p=0.5, rng=2)
        assert outcome.success
        assert outcome.rounds < 4 * k + 60

    def test_per_message_cost_flat_in_n(self):
        small = star_rs_coding(n_leaves=8, k=64, p=0.5, rng=3)
        large = star_rs_coding(n_leaves=512, k=64, p=0.5, rng=3)
        assert small.success and large.success
        assert large.rounds < 1.6 * small.rounds

    def test_validated_decode_roundtrip(self):
        """End-to-end: leaves actually decode the k original messages."""
        outcome = star_rs_coding(
            n_leaves=8, k=8, p=0.3, rng=4, max_rounds=100, validate_decode=True
        )
        assert outcome.success

    @pytest.mark.parametrize(
        "fault_model", [FaultModel.RECEIVER, FaultModel.SENDER], ids=str
    )
    def test_validate_decode_keeps_the_schedule(self, fault_model):
        """Decoding draws from its own stream: the validated run sends the
        same rounds, and each leaf decodes from the packet of each round
        it heard."""
        kwargs = dict(n_leaves=12, k=10, p=0.4, rng=9, max_rounds=200)
        plain = star_rs_coding(fault_model=fault_model, **kwargs)
        validated = star_rs_coding(
            fault_model=fault_model, validate_decode=True, **kwargs
        )
        assert plain.success
        assert validated == plain

    def test_validate_decode_guard(self):
        with pytest.raises(ValueError):
            star_rs_coding(
                n_leaves=4, k=300, p=0.1, validate_decode=True
            )

    @pytest.mark.parametrize("n", [9, 33, 129])
    def test_validating_scenario_runs_under_its_default_budget(self, n):
        """The registry's k=4 budget exceeds one RS block from 6 nodes on;
        validating caps it at 256 rounds, and the run reports what the
        unvalidated run reports."""
        for seed in range(3):
            plain, validated = (
                run(
                    Scenario(
                        algorithm="star_coding",
                        topology="star",
                        topology_params={"n": n},
                        faults=FaultConfig.receiver(0.3),
                        params={"validate_decode": validate},
                        seed=seed,
                    )
                )
                for validate in (False, True)
            )
            assert plain.success, (n, seed)
            assert validated.success == plain.success
            assert validated.rounds == plain.rounds
            assert validated.extras == plain.extras


class TestTheorem17Gap:
    """Routing/coding round ratio on the star grows like log n."""

    def test_gap_grows_with_n(self):
        k, p = 24, 0.5
        gaps = {}
        for n_leaves in (8, 128):
            routing = star_adaptive_routing(n_leaves, k, p, rng=7)
            coding = star_rs_coding(n_leaves, k, p, rng=7)
            assert routing.success and coding.success
            gaps[n_leaves] = routing.rounds / coding.rounds
        assert gaps[128] > gaps[8]

    def test_gap_magnitude_tracks_log_n(self):
        k, p = 32, 0.5
        n_leaves = 256
        routing = star_adaptive_routing(n_leaves, k, p, rng=8)
        coding = star_rs_coding(n_leaves, k, p, rng=8)
        gap = routing.rounds / coding.rounds
        # at p = 1/2 routing needs ~log2(n) rounds/message, coding ~2:
        # the gap should be within a small factor of log2(n)/2
        predicted = math.log2(n_leaves) / 2
        assert predicted / 3 < gap < predicted * 3
