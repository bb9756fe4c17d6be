"""The algorithm registry: every entry is discoverable and runnable."""

from unittest import mock

import pytest

import repro
from repro.algorithms import repetition, robust_fastbc
from repro.algorithms.multi import rlnc_broadcast
from repro.core.faults import FaultConfig
from repro.runner import (
    Scenario,
    all_algorithms,
    get_algorithm,
    run,
)

#: legacy entry point -> registry name; every broadcast function exported
#: from repro.__all__ must be reachable through the registry
LEGACY_TO_REGISTRY = {
    "decay_broadcast": "decay",
    "fastbc_broadcast": "fastbc",
    "robust_fastbc_broadcast": "robust_fastbc",
    "rlnc_decay_broadcast": "rlnc_decay",
    "rlnc_robust_fastbc_broadcast": "rlnc_robust_fastbc",
    "star_adaptive_routing": "star_routing",
    "star_rs_coding": "star_coding",
}


class TestRegistryShape:
    def test_names_sorted_and_unique(self):
        names = [a.name for a in all_algorithms()]
        assert names == sorted(names)
        assert len(names) == len(set(names))

    def test_every_entry_documented(self):
        for algorithm in all_algorithms():
            assert algorithm.summary
            assert algorithm.kind in ("single", "multi", "star", "link")
            for param in algorithm.params:
                assert param.name

    def test_unknown_name_lists_known(self):
        with pytest.raises(KeyError, match="decay"):
            get_algorithm("nope")

    def test_every_legacy_broadcast_export_is_registered(self):
        registered = {a.name for a in all_algorithms()}
        for legacy, name in LEGACY_TO_REGISTRY.items():
            assert legacy in repro.__all__
            assert name in registered

    def test_validate_params_rejects_undeclared(self):
        with pytest.raises(ValueError, match="unknown parameters"):
            get_algorithm("decay").validate_params({"warp": 9})


class TestEveryAlgorithmRuns:
    @pytest.mark.parametrize(
        "name", [a.name for a in all_algorithms()], ids=str
    )
    def test_runs_on_default_topology(self, name):
        algorithm = get_algorithm(name)
        report = run(
            Scenario(
                algorithm=name,
                topology=algorithm.default_topology,
                topology_params={"n": 12},
                faults=FaultConfig.receiver(0.2),
                seed=5,
            )
        )
        assert report.algorithm == name
        assert report.success
        assert report.rounds >= 1
        assert 0 < report.informed <= report.total

    def test_declared_defaults_merge_under_overrides(self):
        report = run(
            Scenario(
                algorithm="star_coding",
                topology="star",
                topology_params={"n": 9},
                params={"k": 3},
                seed=0,
            )
        )
        assert report.extras["k"] == 3
        # faultless coding: exactly k rounds, one packet per message
        assert report.rounds == 3


#: registry name -> the module whose ``build_gbst`` its broadcast calls
GBST_CALLERS = {
    "robust_fastbc": robust_fastbc,
    "rlnc_robust_fastbc": rlnc_broadcast,
    "repeated_fastbc": repetition,
}


def _assert_rejected_before_gbst(name, params, message):
    scenario = Scenario(
        algorithm=name, topology="path", topology_params={"n": 8},
        params=params, seed=1,
    )
    with mock.patch.object(GBST_CALLERS[name], "build_gbst") as build_gbst:
        with pytest.raises(ValueError, match=message):
            run(scenario)
    build_gbst.assert_not_called()


class TestBlockWaveParameterChecks:
    """Robust FASTBC, its RLNC variant and repeated FASTBC reject bad
    parameters before they build a GBST."""

    @pytest.mark.parametrize("name", ["robust_fastbc", "rlnc_robust_fastbc"])
    @pytest.mark.parametrize(
        "params, message",
        [
            ({"round_multiplier": 0}, "round_multiplier must be >= 1"),
            ({"round_multiplier": -1}, "round_multiplier must be >= 1"),
            ({"block": 0}, "block size must be >= 1"),
        ],
        ids=["multiplier-0", "multiplier-negative", "block-0"],
    )
    def test_rejects(self, name, params, message):
        _assert_rejected_before_gbst(name, params, message)

    def test_repeated_fastbc_rejects_repeat_0(self):
        _assert_rejected_before_gbst(
            "repeated_fastbc", {"repeat": 0}, "repeat must be >= 1"
        )
