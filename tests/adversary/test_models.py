"""Unit tests for the adversary models, registry, and scenario wiring."""

import random

import numpy as np
import pytest

from repro.adversary import (
    AdversaryParam,
    BudgetedJammer,
    EdgeChurn,
    GilbertElliott,
    IIDFaults,
    all_adversaries,
    as_adversary,
    build_adversary,
    get_adversary_type,
)
from repro.core.engine import Channel, Simulator
from repro.core.faults import AdversaryConfig, FaultConfig, FaultModel
from repro.runner import Scenario, run
from repro.topologies import basic, random_graphs

from per_node import NodeLayer


def nodes(*ids: int) -> np.ndarray:
    """One round's broadcasters, as the channel takes them."""
    return np.array(ids, dtype=np.int64)


def _drive(channel: Channel, rounds: int, action_seed: int = 0) -> list:
    sampler = random.Random(action_seed)
    results = []
    for _ in range(rounds):
        n = channel.network.n
        chosen = sampler.sample(range(n), sampler.randint(0, n))
        results.append(channel.transmit(nodes(*sorted(chosen))))
    return results


class TestRegistry:
    def test_all_four_models_registered(self):
        names = [kind.name for kind in all_adversaries()]
        assert names == [
            "budgeted_jammer",
            "edge_churn",
            "gilbert_elliott",
            "iid",
        ]

    def test_unknown_kind_rejected(self):
        with pytest.raises(KeyError, match="unknown adversary"):
            get_adversary_type("emp_blast")
        with pytest.raises(KeyError, match="unknown adversary"):
            build_adversary(AdversaryConfig("emp_blast"))

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError, match="unknown parameters"):
            build_adversary(AdversaryConfig("gilbert_elliott", {"p_bda": 0.5}))

    def test_build_merges_defaults(self):
        adversary = build_adversary(
            AdversaryConfig("budgeted_jammer", {"per_round": 3})
        )
        assert adversary.per_round == 3
        assert adversary.policy == "frontier"  # declared default

    def test_as_adversary_coercions(self):
        assert as_adversary(None) is None
        instance = GilbertElliott()
        assert as_adversary(instance) is instance
        built = as_adversary(AdversaryConfig("edge_churn"))
        assert isinstance(built, EdgeChurn)
        with pytest.raises(TypeError):
            as_adversary("edge_churn")

    def test_declared_params_have_docs(self):
        for kind in all_adversaries():
            for param in kind.params:
                assert isinstance(param, AdversaryParam)
                assert param.doc, f"{kind.name}.{param.name} lacks a doc"

    def test_instance_cannot_bind_twice(self):
        instance = GilbertElliott()
        Channel(basic.path(4), adversary=instance)
        with pytest.raises(ValueError, match="already bound"):
            Channel(basic.path(4), adversary=instance)


class TestAdversaryConfig:
    def test_round_trip(self):
        config = AdversaryConfig("edge_churn", {"p_down": 0.25})
        assert AdversaryConfig.from_dict(config.to_dict()) == config

    def test_params_normalized_to_dict(self):
        config = AdversaryConfig("iid", {"p": 0.1})
        assert isinstance(config.params, dict)

    def test_bad_kind_rejected(self):
        with pytest.raises(TypeError):
            AdversaryConfig("")
        with pytest.raises(TypeError):
            AdversaryConfig(3)
        with pytest.raises(TypeError):
            AdversaryConfig("iid", params="p=0.1")

    def test_str_is_compact(self):
        assert str(AdversaryConfig("iid")) == "iid"
        assert "p_down=0.2" in str(AdversaryConfig("edge_churn", {"p_down": 0.2}))


class TestIIDFaultsSubsumesFaultConfig:
    """Acceptance criterion: same seed => byte-identical reports."""

    @pytest.mark.parametrize("model", ["sender", "receiver"])
    def test_channel_streams_identical(self, model):
        network = random_graphs.gnp(40, 0.2, rng=2)
        faults = FaultConfig(FaultModel(model), 0.35)
        legacy = Channel(network, faults, rng=9)
        adversarial = Channel(
            network,
            rng=9,
            adversary=AdversaryConfig("iid", {"model": model, "p": 0.35}),
        )
        for got, want in zip(_drive(adversarial, 10), _drive(legacy, 10)):
            assert got == want
        assert adversarial.counters.as_dict() == legacy.counters.as_dict()

    @pytest.mark.parametrize(
        "algorithm,params",
        [("decay", {}), ("robust_fastbc", {}), ("rlnc_decay", {"k": 2})],
    )
    def test_runner_reports_byte_identical(self, algorithm, params):
        common = dict(
            algorithm=algorithm,
            topology="gnp",
            topology_params={"n": 24, "seed": 3},
            params=params,
            seed=5,
        )
        legacy = Scenario(faults=FaultConfig.receiver(0.3), **common)
        adversarial = Scenario(
            adversary=AdversaryConfig("iid", {"model": "receiver", "p": 0.3}),
            **common,
        )
        # canonicalization makes them the *same* scenario...
        assert legacy == adversarial
        # ...and the canonical reports match byte for byte
        assert run(legacy).to_json(canonical=True) == run(adversarial).to_json(
            canonical=True
        )

    def test_legacy_scenario_dict_is_unchanged(self):
        """Fault-coin scenarios serialize exactly as before the adversary
        subsystem existed (no new key => no canonical-report drift)."""
        scenario = Scenario(
            algorithm="decay", faults=FaultConfig.receiver(0.3), seed=1
        )
        assert "adversary" not in scenario.to_dict()

    def test_simulator_accepts_faultconfig_and_adversary_exclusively(self):
        layer_factory = lambda: NodeLayer([_NullProtocol() for _ in range(3)])
        Simulator(basic.path(3), layer_factory(), adversary=IIDFaults())
        with pytest.raises(ValueError, match="not both"):
            Simulator(
                basic.path(3),
                layer_factory(),
                FaultConfig.receiver(0.2),
                adversary=IIDFaults(),
            )
        with pytest.raises(TypeError):
            Channel(basic.path(3), adversary="iid")


class _NullProtocol:
    active = False

    def act(self, round_index):
        return None

    def on_receive(self, round_index, packet, sender):
        pass

    def is_done(self):
        return True


class TestGilbertElliott:
    def test_all_bad_loses_everything(self):
        # p_bad=1.0 — the classic Gilbert total-loss parameterization —
        # is valid (closed interval, unlike FaultConfig's half-open p)
        network = basic.star(10)
        channel = Channel(
            network,
            rng=1,
            adversary=GilbertElliott(
                p_bad=1.0, p_enter=1.0, p_exit=0.0, start_bad=True
            ),
        )
        for _ in range(5):
            result = channel.transmit(nodes(0))
            assert result.receivers.size == 0
            assert result.noise_receivers.tolist() == list(range(1, 11))

    def test_never_bad_is_clean(self):
        network = basic.star(10)
        channel = Channel(
            network, rng=1, adversary=GilbertElliott(p_bad=0.9, p_enter=0.0)
        )
        result = channel.transmit(nodes(0))
        assert len(result.receivers) == 10

    def test_nominal_p_is_stationary_loss(self):
        ge = GilbertElliott(p_bad=0.8, p_good=0.0, p_enter=0.1, p_exit=0.3)
        assert ge.nominal_p == pytest.approx(0.8 * 0.1 / 0.4)

    def test_burstiness_correlates_losses(self):
        """With slow transitions, consecutive-round losses at one node are
        far more correlated than i.i.d. coins at the same average rate."""
        network = basic.star(1)
        channel = Channel(
            network,
            rng=3,
            adversary=GilbertElliott(
                p_bad=1.0, p_good=0.0, p_enter=0.02, p_exit=0.1
            ),
        )
        outcomes = []
        for _ in range(4000):
            result = channel.transmit(nodes(0))
            outcomes.append(0 if result.receivers.size else 1)
        lost = np.asarray(outcomes)
        rate = lost.mean()
        assert 0.05 < rate < 0.4  # near the stationary 1/6
        joint = (lost[1:] & lost[:-1]).mean()
        assert joint > 2.0 * rate * rate  # streaks, not coin flips


class TestBudgetedJammer:
    def test_budget_and_per_round_cap_respected(self):
        network = random_graphs.gnp(30, 0.3, rng=4)
        jammer = BudgetedJammer(per_round=2, budget=9, policy="random")
        channel = Channel(network, rng=5, adversary=jammer)
        total = 0
        for result in _drive(channel, 30, action_seed=2):
            assert len(result.noise_receivers) <= 2
            total += len(result.noise_receivers)
        assert total == jammer.spent <= 9
        assert channel.counters.receiver_faults == jammer.spent

    def test_unlimited_budget_jams_every_round(self):
        network = basic.star(6)
        channel = Channel(
            network, rng=1, adversary=BudgetedJammer(per_round=10)
        )
        for _ in range(4):
            result = channel.transmit(nodes(0))
            assert result.receivers.size == 0
            assert len(result.noise_receivers) == 6

    def test_max_degree_policy_targets_hubs(self):
        # path 0-1-2: broadcasting from 1 reaches both ends; jam 1 slot.
        # On a 4-path 0-1-2-3 broadcasting {0, 3} reaches 1 and 2 (equal
        # degree); tie breaks to the lowest id.
        network = basic.path(4)
        channel = Channel(
            network, rng=1, adversary=BudgetedJammer(per_round=1, policy="max_degree")
        )
        result = channel.transmit(nodes(0, 3))
        assert result.noise_receivers.tolist() == [1]
        assert result.receivers.tolist() == [2]

    def test_frontier_policy_prefers_first_receptions(self):
        network = basic.star(4)  # hub 0, leaves 1..4
        jammer = BudgetedJammer(per_round=1, policy="frontier")
        channel = Channel(network, rng=1, adversary=jammer)
        first = channel.transmit(nodes(0))
        jammed_first = first.noise_receivers[0]
        # the three delivered leaves are now "informed"; the jammer keeps
        # chasing the one leaf that has never received
        second = channel.transmit(nodes(0))
        assert second.noise_receivers.tolist() == [jammed_first]

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            BudgetedJammer(policy="psychic")

    def test_nominal_p_inflates_round_budgets(self):
        # budgets must plan for jamming, not for a faultless channel
        assert BudgetedJammer().nominal_p == 0.5


class TestEdgeChurn:
    def test_never_down_matches_no_adversary(self):
        network = random_graphs.gnp(25, 0.25, rng=6)
        churned = Channel(network, rng=2, adversary=EdgeChurn(p_down=0.0))
        plain = Channel(network, rng=2)
        for got, want in zip(
            _drive(churned, 8, action_seed=1), _drive(plain, 8, action_seed=1)
        ):
            assert got == want

    def test_all_down_delivers_nothing(self):
        network = basic.star(8)
        channel = Channel(
            network,
            rng=1,
            adversary=EdgeChurn(p_down=1.0, p_up=0.0, start_down=True),
        )
        for _ in range(3):
            result = channel.transmit(nodes(0))
            assert result.receivers.size == 0
            assert result.collision_receivers.size == 0
            assert result.noise_receivers.size == 0

    def test_down_edge_removes_collision_contribution(self):
        """A listener whose other neighbor's edge is down receives cleanly
        instead of colliding: churn rewires, it does not just erase."""
        network = basic.path(3)  # 1 hears 0 and 2
        seen_clean_delivery = False
        for seed in range(40):
            channel = Channel(
                network, rng=seed, adversary=EdgeChurn(p_down=0.5, p_up=0.2)
            )
            result = channel.transmit(nodes(0, 2))
            if result.receivers.tolist() == [1]:
                seen_clean_delivery = True
                break
        assert seen_clean_delivery

    def test_churn_slows_but_does_not_break_decay(self):
        from repro import decay_broadcast

        outcome = decay_broadcast(
            basic.path(24),
            rng=3,
            adversary=AdversaryConfig("edge_churn", {"p_down": 0.2, "p_up": 0.6}),
        )
        assert outcome.success


class TestScenarioWiring:
    def test_round_trip_with_adversary(self):
        scenario = Scenario(
            algorithm="rlnc_decay",
            topology="grid",
            topology_params={"n": 16},
            params={"k": 2},
            adversary=AdversaryConfig("budgeted_jammer", {"budget": 10}),
            seed=4,
        )
        assert Scenario.from_dict(scenario.to_dict()) == scenario
        assert scenario.to_dict()["adversary"]["kind"] == "budgeted_jammer"

    def test_adversary_requires_channel_algorithm(self):
        for algorithm in ("star_coding", "single_link_routing"):
            with pytest.raises(ValueError, match="does not support adversary"):
                Scenario(
                    algorithm=algorithm,
                    adversary=AdversaryConfig("gilbert_elliott"),
                )

    def test_adversary_and_faults_mutually_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            Scenario(
                algorithm="decay",
                faults=FaultConfig.receiver(0.2),
                adversary=AdversaryConfig("edge_churn"),
            )

    def test_adversary_type_checked(self):
        with pytest.raises(TypeError, match="AdversaryConfig"):
            Scenario(algorithm="decay", adversary="edge_churn")

    def test_sweep_grid_over_adversaries(self):
        from repro.runner import expand_grid

        base = Scenario(algorithm="decay", topology_params={"n": 8})
        scenarios = expand_grid(
            base,
            seeds=[0, 1],
            grid={
                "adversary": [
                    None,
                    AdversaryConfig("gilbert_elliott"),
                    AdversaryConfig("edge_churn"),
                ]
            },
        )
        assert len(scenarios) == 6
        kinds = {
            s.adversary.kind if s.adversary else None for s in scenarios
        }
        assert kinds == {None, "gilbert_elliott", "edge_churn"}

    def test_report_embeds_adversary(self):
        report = run(
            Scenario(
                algorithm="decay",
                topology_params={"n": 12},
                adversary=AdversaryConfig("gilbert_elliott", {"p_bad": 0.5}),
                seed=2,
            )
        )
        assert report.scenario["adversary"] == {
            "kind": "gilbert_elliott",
            "params": {"p_bad": 0.5},
        }
