"""The algorithm registry: every entry is discoverable and runnable."""

from unittest import mock

import pytest

import repro
from repro.algorithms import repetition, robust_fastbc
from repro.algorithms.multi import rlnc_broadcast
from repro.core.faults import FaultConfig
from repro.topologies.basic import path
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

    @pytest.mark.parametrize(
        "algorithm, params",
        [
            ("rlnc_decay", {"k": 0}),
            ("star_coding", {"k": -2}),
            ("single_link_routing", {"k": 0}),
            ("repeated_fastbc", {"repeat": 0}),
            ("robust_fastbc", {"round_multiplier": 0}),
            ("robust_fastbc", {"block": 0}),
            ("single_link_nonadaptive", {"repetitions": 0}),
            ("rlnc_dense_wave", {"payload_length": -1}),
            ("rlnc_decay", {"k": "4"}),
            ("rlnc_decay", {"k": None}),
        ],
    )
    def test_scenario_checks_parameter_values(self, algorithm, params):
        (name,) = params
        with pytest.raises(ValueError, match=f"parameter '{name}' must be an int >="):
            Scenario(algorithm=algorithm, params=params)

    def test_bounds_and_none_defaults_are_accepted(self):
        Scenario(algorithm="robust_fastbc", params={"block": None})
        Scenario(algorithm="single_link_nonadaptive", params={"repetitions": None})
        Scenario(algorithm="rlnc_decay", params={"k": 1, "payload_length": 0})


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
    """A scenario refuses ``params`` when it is built; the entry point,
    reached through the registry's adapter without that check, refuses
    them before it builds a GBST."""
    with pytest.raises(ValueError, match="must be an int >= 1"):
        Scenario(
            algorithm=name, topology="path", topology_params={"n": 8},
            params=params, seed=1,
        )
    algorithm = get_algorithm(name)
    merged = {**algorithm.declared(), **params}
    with mock.patch.object(GBST_CALLERS[name], "build_gbst") as build_gbst:
        with pytest.raises(ValueError, match=message):
            algorithm.adapter(path(8), FaultConfig.faultless(), 1, None, merged)
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
