"""Scenario validation and serialization."""

import pytest

from repro.core.faults import FaultConfig, FaultModel
from repro.runner import Scenario, get_algorithm, run
from repro.topologies import path


class TestValidation:
    def test_unknown_algorithm_rejected(self):
        with pytest.raises(KeyError, match="unknown algorithm"):
            Scenario(algorithm="warp_drive")

    def test_unknown_topology_family_rejected(self):
        with pytest.raises(ValueError, match="unknown topology family"):
            Scenario(algorithm="decay", topology="klein_bottle")

    def test_undeclared_algorithm_param_rejected(self):
        with pytest.raises(ValueError, match="unknown parameters"):
            Scenario(algorithm="decay", params={"k": 3})

    def test_unknown_topology_param_rejected(self):
        with pytest.raises(ValueError, match="topology_params"):
            Scenario(algorithm="decay", topology_params={"diameter": 5})

    def test_prebuilt_network_rejected_naming_the_entry_points(self):
        # every scenario has a content address, which a pre-built network
        # lacks: it runs through the per-algorithm entry points instead
        with pytest.raises(TypeError, match="got RadioNetwork") as error:
            Scenario(algorithm="decay", topology=path(5))
        assert "decay_broadcast(network, ...)" in str(error.value)
        assert "get_algorithm(name).run(network, ...)" in str(error.value)
        # a topology from outside JSON (POST /jobs) is checked the same way
        with pytest.raises(TypeError, match="got int"):
            Scenario.from_dict({"algorithm": "decay", "topology": 5})

    def test_topology_params_rejected_for_explicit_network(self):
        # the network itself is refused before its size params are read
        with pytest.raises(TypeError, match="got RadioNetwork"):
            Scenario(
                algorithm="decay", topology=path(8), topology_params={"n": 8}
            )

    def test_faults_type_checked(self):
        with pytest.raises(TypeError, match="FaultConfig"):
            Scenario(algorithm="decay", faults=0.3)

    def test_bad_max_rounds_rejected(self):
        with pytest.raises(ValueError, match="max_rounds"):
            Scenario(algorithm="decay", max_rounds=0)

    def test_negative_seed_rejected(self):
        # random.Random seeds from abs(seed), so seed -7 would replay seed 7
        with pytest.raises(ValueError, match="non-negative, got -7"):
            Scenario(algorithm="rlnc_decay", seed=-7)

    @pytest.mark.parametrize(
        "key, value, error, message",
        [
            ("n", 0, ValueError, r"\['n'\] must be positive, got 0"),
            ("n", -4, ValueError, r"\['n'\] must be positive, got -4"),
            ("n", 16.0, TypeError, r"\['n'\] must be an int, got float"),
            ("n", "16", TypeError, r"\['n'\] must be an int, got str"),
            ("n", True, TypeError, r"\['n'\] must be an int, got bool"),
            ("seed", -1, ValueError, r"\['seed'\] must be non-negative, got -1"),
            ("seed", 1.5, TypeError, r"\['seed'\] must be an int, got float"),
            ("seed", False, TypeError, r"\['seed'\] must be an int, got bool"),
        ],
    )
    def test_bad_topology_size_or_seed_rejected(self, key, value, error, message):
        # a bad size must fail here, not run on a one-node grid or fail
        # deep inside a worker's run
        for topology in ("grid", "gnp"):
            with pytest.raises(error, match=message):
                Scenario(
                    algorithm="decay",
                    topology=topology,
                    topology_params={key: value},
                )
        with pytest.raises(error, match=message):
            Scenario.from_dict(
                {"algorithm": "decay", "topology": "grid",
                 "topology_params": {key: value}}
            )

    def test_smallest_topology_params_accepted(self):
        scenario = Scenario(
            algorithm="decay", topology="gnp", topology_params={"n": 1, "seed": 0}
        )
        assert run(scenario).total == 1


class TestTopologyBuild:
    def test_named_family_uses_size_and_default(self):
        assert Scenario(
            algorithm="decay", topology_params={"n": 24}
        ).build_network().n == 24
        from repro.runner.scenario import DEFAULT_TOPOLOGY_SIZE

        assert Scenario(algorithm="decay").build_network().n == (
            DEFAULT_TOPOLOGY_SIZE
        )

    def test_topology_seed_pins_random_families(self):
        pinned = Scenario(
            algorithm="decay",
            topology="gnp",
            topology_params={"n": 20, "seed": 7},
        )
        for seed in (0, 1):
            scenario = pinned.with_(seed=seed)
            assert (
                scenario.build_network().edge_count
                == pinned.build_network().edge_count
            )

    def test_explicit_network_returned_as_is(self):
        # the entry point the TypeError names runs a pre-built network as
        # is, with the outcome of the scenario that builds the same network
        named = run(Scenario(algorithm="decay", topology_params={"n": 9}, seed=3))
        result = get_algorithm("decay").run(path(9), FaultConfig.faultless(), 3)
        assert result.total == named.total == 9
        assert (result.success, result.rounds, result.informed) == (
            named.success,
            named.rounds,
            named.informed,
        )


class TestSerialization:
    def test_round_trip(self):
        scenario = Scenario(
            algorithm="rlnc_decay",
            topology="gnp",
            topology_params={"n": 20, "seed": 3},
            params={"k": 2},
            faults=FaultConfig.sender(0.1),
            seed=11,
            max_rounds=5000,
        )
        clone = Scenario.from_dict(scenario.to_dict())
        assert clone == scenario

    def test_faults_serialize_by_model_name(self):
        data = Scenario(
            algorithm="decay", faults=FaultConfig.receiver(0.25)
        ).to_dict()
        assert data["faults"] == {"model": "receiver", "p": 0.25}
        assert Scenario.from_dict(data).faults.model is FaultModel.RECEIVER

    def test_with_replaces_fields(self):
        base = Scenario(algorithm="decay", seed=0)
        assert base.with_(seed=9).seed == 9
        assert base.with_(algorithm="fastbc").algorithm == "fastbc"
        assert base.seed == 0
