"""Scenario.cache_key(): stability, sensitivity, and report surfacing."""

import json

import pytest

from repro.core.faults import AdversaryConfig, FaultConfig
from repro.runner import RunReport, Scenario, run

BASE = Scenario(
    algorithm="decay",
    topology="path",
    topology_params={"n": 16},
    faults=FaultConfig.receiver(0.3),
    seed=4,
)


class TestCacheKey:
    def test_is_hex_sha256(self):
        key = BASE.cache_key()
        assert len(key) == 64
        int(key, 16)

    def test_equal_scenarios_share_a_key(self):
        clone = Scenario.from_dict(BASE.to_dict())
        assert clone.cache_key() == BASE.cache_key()

    @pytest.mark.parametrize(
        "changes",
        [
            {"seed": 5},
            {"algorithm": "fastbc"},
            {"topology_params": {"n": 17}},
            {"faults": FaultConfig.receiver(0.2)},
            {"max_rounds": 500},
        ],
    )
    def test_any_field_change_changes_the_key(self, changes):
        assert BASE.with_(**changes).cache_key() != BASE.cache_key()

    def test_iid_adversary_spelling_shares_the_faults_key(self):
        # construction canonicalizes iid back into faults, so both
        # spellings are one scenario and one content address
        spelled = Scenario(
            algorithm="decay",
            topology="path",
            topology_params={"n": 16},
            adversary=AdversaryConfig("iid", {"model": "receiver", "p": 0.3}),
            seed=4,
        )
        assert spelled.cache_key() == BASE.cache_key()

    def test_adversary_scenarios_get_distinct_keys(self):
        jammer = BASE.with_(
            faults=FaultConfig.faultless(),
            adversary=AdversaryConfig("budgeted_jammer", {"per_round": 2}),
        )
        churn = BASE.with_(
            faults=FaultConfig.faultless(),
            adversary=AdversaryConfig("edge_churn", {}),
        )
        assert jammer.cache_key() != churn.cache_key()

    def test_explicit_network_is_not_cacheable(self):
        # older versions described a pre-built network by a placeholder;
        # it names no topology family, so it never becomes a keyed scenario
        data = BASE.to_dict()
        data["topology"] = "<explicit:path-8>"
        data["topology_params"] = {}
        with pytest.raises(ValueError, match="unknown topology family"):
            Scenario.from_dict(data)


class TestReportCacheKey:
    def test_run_surfaces_the_key(self):
        report = run(BASE)
        assert report.cache_key == BASE.cache_key()
        data = report.to_dict()
        assert data["cache_key"] == BASE.cache_key()
        assert json.loads(report.to_json(canonical=True))["cache_key"] == (
            BASE.cache_key()
        )

    def test_round_trips_through_dict(self):
        report = run(BASE)
        assert RunReport.from_dict(report.to_dict()).cache_key == report.cache_key

    def test_explicit_network_report_has_no_key(self):
        # a report older versions wrote for a pre-built network loads
        # without a key and re-renders byte for byte
        data = run(BASE).to_dict(include_timing=False)
        del data["cache_key"]
        data["scenario"]["topology"] = "<explicit:path-16>"
        data["scenario"]["topology_params"] = {}
        report = RunReport.from_dict(data)
        assert report.cache_key == ""
        assert "cache_key" not in report.to_dict()
        assert report.to_json(canonical=True) == json.dumps(data, sort_keys=True)

    def test_keyless_reports_keep_pre_store_canonical_bytes(self):
        # reports that don't opt in (hand-built, or loaded from old JSON)
        # must render exactly as they did before the store existed
        report = RunReport(
            scenario={"algorithm": "decay", "seed": 0},
            algorithm="decay",
            success=True,
            rounds=12,
            informed=8,
            total=8,
            network_n=8,
            network_name="path-8",
        )
        data = json.loads(report.to_json(canonical=True))
        assert set(data) == {
            "scenario", "algorithm", "success", "rounds", "informed",
            "total", "counters", "extras", "network_n", "network_name",
        }
