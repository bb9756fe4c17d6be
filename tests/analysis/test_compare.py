"""Paired comparison: exact sign test, matched pairing, certification."""

import math

import pytest

from repro.analysis import compare, sign_test
from repro.core.faults import FaultConfig
from repro.runner import RunReport, Scenario


class TestSignTest:
    def test_closed_form_small_cases(self):
        # P(all 5 one way) * 2 = 2/32
        assert sign_test(5, 0) == pytest.approx(2 / 32)
        assert sign_test(0, 5) == pytest.approx(2 / 32)
        # balanced outcomes are never significant
        assert sign_test(3, 3) == pytest.approx(1.0)

    def test_matches_exact_binomial_tail(self):
        wins, losses = 9, 3
        n = wins + losses
        tail = sum(math.comb(n, i) for i in range(losses + 1)) / 2**n
        assert sign_test(wins, losses) == pytest.approx(2 * tail)

    def test_degenerate_and_invalid(self):
        assert sign_test(0, 0) == 1.0
        with pytest.raises(ValueError):
            sign_test(-1, 2)


def _fabricated(ratio=2.0, trials=8, sizes=(16, 32)):
    """Two arms where decay is exactly `ratio` times slower per pair."""
    reports = []
    for algorithm in ("decay", "rlnc_decay"):
        for n in sizes:
            for seed in range(trials):
                scenario = Scenario(
                    algorithm=algorithm,
                    topology="path",
                    topology_params={"n": n},
                    params={"k": 4} if algorithm == "rlnc_decay" else {},
                    faults=FaultConfig.receiver(0.3),
                    seed=seed,
                )
                base_rounds = 50 + 3 * n + 5 * seed
                rounds = (
                    int(base_rounds * ratio)
                    if algorithm == "decay"
                    else base_rounds
                )
                reports.append(
                    RunReport(
                        scenario=scenario.to_dict(),
                        algorithm=algorithm,
                        success=True,
                        rounds=rounds,
                        informed=n,
                        total=n,
                        network_n=n,
                        network_name=f"path-{n}",
                        cache_key=scenario.cache_key(),
                    )
                )
    return reports


class TestCompare:
    def test_certifies_a_constructed_gap(self):
        report = compare(
            _fabricated(ratio=2.0),
            arm_a={"algorithm": "decay"},
            arm_b={"algorithm": "rlnc_decay"},
            match_on=("n", "seed"),
        )
        summary = report.summary
        assert summary["pairs"] == 16
        assert summary["mean_ratio"] == pytest.approx(2.0, abs=0.01)
        assert summary["significant"] is True
        assert summary["ratio_ci_low"] > 1.0
        assert summary["wins"] == 16 and summary["losses"] == 0
        assert summary["sign_test_p"] < 1e-3

    def test_identical_arms_not_significant(self):
        report = compare(
            _fabricated(ratio=1.0),
            arm_a={"algorithm": "decay"},
            arm_b={"algorithm": "rlnc_decay"},
            match_on=("n", "seed"),
        )
        assert report.summary["significant"] is False
        assert report.summary["sign_test_p"] == 1.0

    def test_per_group_rows_carry_both_means(self):
        report = compare(
            _fabricated(ratio=2.0),
            arm_a={"algorithm": "decay"},
            arm_b={"algorithm": "rlnc_decay"},
            match_on=("n", "seed"),
        )
        assert [row["n"] for row in report.rows] == [16, 32]
        for row in report.rows:
            assert row["mean_a"] == pytest.approx(2.0 * row["mean_b"], abs=1.0)

    def test_per_message_metric_divides_by_k(self):
        report = compare(
            _fabricated(ratio=2.0),
            arm_a={"algorithm": "decay"},
            arm_b={"algorithm": "rlnc_decay"},
            metric="rounds_per_message",
            match_on=("n", "seed"),
        )
        # B runs carry k=4, so the per-message ratio is 4x the raw one
        assert report.summary["mean_ratio"] == pytest.approx(8.0, abs=0.05)

    def test_deterministic_bytes(self):
        a = compare(
            _fabricated(),
            arm_a={"algorithm": "decay"},
            arm_b={"algorithm": "rlnc_decay"},
            match_on=("n", "seed"),
        )
        b = compare(
            list(reversed(_fabricated())),
            arm_a={"algorithm": "decay"},
            arm_b={"algorithm": "rlnc_decay"},
            match_on=("n", "seed"),
        )
        assert a.to_json(canonical=True) == b.to_json(canonical=True)
        assert a.cache_key() == b.cache_key()

    def test_no_matched_pairs_raises(self):
        reports = [r for r in _fabricated() if r.algorithm == "decay"]
        with pytest.raises(ValueError):
            compare(
                reports,
                arm_a={"algorithm": "decay"},
                arm_b={"algorithm": "rlnc_decay"},
            )

    def test_overlapping_arms_rejected(self):
        reports = _fabricated()
        with pytest.raises(ValueError, match="arms overlap"):
            compare(
                reports,
                arm_a={"topology": "path"},
                arm_b={"algorithm": "decay"},
                match_on=("n", "seed"),
            )

    def test_adversary_none_spelling_matches_fault_coin_rows(self):
        # the store layer spells "no adversary" as "" but documents the
        # "none" filter spelling; arms must honor both
        reports = _fabricated(ratio=2.0)
        report = compare(
            reports,
            arm_a={"algorithm": "decay", "adversary": "none"},
            arm_b={"algorithm": "rlnc_decay"},
            match_on=("n", "seed"),
        )
        assert report.summary["pairs"] == 16

    def test_validation(self):
        reports = _fabricated()
        with pytest.raises(ValueError):
            compare(reports, arm_a={}, arm_b={"algorithm": "x"})
        with pytest.raises(ValueError):
            compare(
                reports,
                arm_a={"flavor": "x"},
                arm_b={"algorithm": "decay"},
            )
        with pytest.raises(ValueError):
            compare(
                reports,
                arm_a={"algorithm": "decay"},
                arm_b={"algorithm": "rlnc_decay"},
                metric="vibes",
            )
