"""Property tests: every adversary is kernel-independent and deterministic.

Extends the ``tests/core/test_channel_vectorized.py`` pattern to the
adversary subsystem: for every registered adversary model, the
vectorized and scalar channel kernels must agree delivery for delivery
over >= 40 sampled (topology, seed, adversary-param) configurations, and
rebuilding the same configuration from the same seed must reproduce the
run byte for byte — at the channel level (round streams) and at the
runner level (canonical RunReport JSON).
"""

import random
from unittest import mock

import numpy as np
import pytest

from repro.adversary import all_adversaries
from repro.core.engine import Channel
from repro.core.faults import AdversaryConfig
from repro.runner import Scenario, run
from repro.topologies import basic, random_graphs

ADVERSARY_KINDS = tuple(kind.name for kind in all_adversaries())


def _sample_network(sampler: random.Random, config_index: int):
    kind = sampler.choice(["gnp", "star", "path", "cycle", "grid", "caterpillar"])
    n = sampler.randint(2, 64)
    if kind == "gnp":
        return random_graphs.gnp(
            max(n, 4), min(1.0, 8.0 / max(n, 4)), rng=config_index
        )
    if kind == "star":
        return basic.star(max(1, n - 1))
    if kind == "cycle":
        return basic.cycle(max(3, n))
    if kind == "grid":
        side = max(2, round(n**0.5))
        return basic.grid(side, side)
    if kind == "caterpillar":
        return basic.caterpillar(max(1, n // 4), 3)
    return basic.path(n)


def _sample_params(kind: str, sampler: random.Random) -> dict:
    """Random but valid parameters for one adversary model."""
    if kind == "iid":
        model = sampler.choice(["none", "sender", "receiver"])
        return {
            "model": model,
            "p": 0.0 if model == "none" else sampler.uniform(0.0, 0.9),
        }
    if kind == "gilbert_elliott":
        return {
            "p_bad": sampler.uniform(0.2, 0.95),
            "p_good": sampler.uniform(0.0, 0.2),
            "p_enter": sampler.uniform(0.0, 0.5),
            "p_exit": sampler.uniform(0.05, 1.0),
            "start_bad": sampler.random() < 0.3,
        }
    if kind == "budgeted_jammer":
        return {
            "per_round": sampler.randint(1, 4),
            "budget": sampler.choice([None, sampler.randint(1, 60)]),
            "policy": sampler.choice(["random", "max_degree", "frontier"]),
        }
    if kind == "edge_churn":
        return {
            "p_down": sampler.uniform(0.0, 0.6),
            "p_up": sampler.uniform(0.1, 1.0),
            "start_down": sampler.random() < 0.3,
        }
    raise AssertionError(f"no sampler for adversary kind {kind!r}")


def _sample_broadcasters(sampler: random.Random, n: int) -> np.ndarray:
    count = sampler.randint(0, n)
    return np.array(sorted(sampler.sample(range(n), count)), dtype=np.int64)


class TestKernelEquivalence:
    @pytest.mark.parametrize("kind", ADVERSARY_KINDS)
    def test_vectorized_matches_scalar_across_sampled_configs(self, kind):
        """>= 40 sampled (topology, seed, adversary-param) configs per
        model, several rounds each with random broadcast sets."""
        # a stable per-kind seed (str hash is randomized per process)
        sampler = random.Random(sum(kind.encode()))
        for config_index in range(40):
            network = _sample_network(sampler, config_index)
            config = AdversaryConfig(kind, _sample_params(kind, sampler))
            seed = sampler.randrange(2**31)
            vectorized = Channel(network, rng=seed, adversary=config)
            scalar = Channel(network, rng=seed, adversary=config)
            context = (
                f"config {config_index}: {network.name} n={network.n} "
                f"adversary={config} seed={seed}"
            )
            for _ in range(8):
                broadcasters = _sample_broadcasters(sampler, network.n)
                # threshold 0: every round on the vectorized kernel
                with mock.patch.object(Channel, "VECTORIZE_MIN_WORK", 0):
                    got = vectorized.transmit(broadcasters)
                want = scalar.transmit_reference(broadcasters)
                assert got == want, context
            assert (
                vectorized.counters.as_dict() == scalar.counters.as_dict()
            ), context

    @pytest.mark.parametrize("kind", ADVERSARY_KINDS)
    def test_same_seed_rounds_are_byte_identical(self, kind):
        """Rebuilding the identical channel replays the identical run."""
        sampler = random.Random(len(kind))
        for config_index in range(5):
            network = _sample_network(sampler, config_index)
            config = AdversaryConfig(kind, _sample_params(kind, sampler))
            seed = sampler.randrange(2**31)
            action_seed = sampler.randrange(2**31)
            streams = []
            for _ in range(2):
                channel = Channel(network, rng=seed, adversary=config)
                actions_rng = random.Random(action_seed)
                rounds = [
                    channel.transmit(_sample_broadcasters(actions_rng, network.n))
                    for _ in range(6)
                ]
                streams.append((rounds, channel.counters.as_dict()))
            (rounds_a, counters_a), (rounds_b, counters_b) = streams
            for got, want in zip(rounds_a, rounds_b):
                assert got == want, f"{config} replay"
            assert counters_a == counters_b


class TestRunnerDeterminism:
    @pytest.mark.parametrize("kind", ADVERSARY_KINDS)
    def test_same_scenario_same_canonical_report(self, kind):
        """Runner level: same seed => byte-identical canonical JSON."""
        params = {
            "iid": {"model": "receiver", "p": 0.3},
            "gilbert_elliott": {"p_bad": 0.7},
            "budgeted_jammer": {"per_round": 1, "budget": 30},
            "edge_churn": {"p_down": 0.2},
        }[kind]
        scenario = Scenario(
            algorithm="decay",
            topology="gnp",
            topology_params={"n": 24, "seed": 5},
            adversary=AdversaryConfig(kind, params),
            seed=11,
        )
        first = run(scenario).to_json(canonical=True)
        second = run(scenario).to_json(canonical=True)
        assert first == second
