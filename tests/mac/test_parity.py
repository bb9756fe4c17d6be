"""Property suite: the vectorized MAC kernel IS the scalar reference.

Mirrors ``tests/core/test_channel_vectorized.py`` for the contention
channel: random topologies, MAC configs, fault models, adversaries, and
offer sets; :meth:`ContentionChannel.transmit` and
:meth:`ContentionChannel.transmit_reference` must return equal
:class:`~repro.core.engine.RoundResult` objects, every field, and equal
counters, because both kernels consume one identical RNG stream (bulk
draws, ascending node order).
"""

import random

import numpy as np

from repro.core.faults import AdversaryConfig, FaultConfig
from repro.mac import ContentionChannel, MacConfig
from repro.topologies import basic, random_graphs


def _offers(sampler, n):
    """A random ascending offer array over ``range(n)``."""
    count = sampler.randint(0, n)
    return np.array(sorted(sampler.sample(range(n), count)), dtype=np.int64)


def _sample_network(sampler, config_index):
    kind = sampler.choice(["gnp", "star", "path", "cycle", "grid"])
    n = sampler.randint(2, 48)
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
    return basic.path(n)


def _sample_config(sampler):
    cw_min = sampler.choice([1, 2, 4, 8, 16])
    cw_max = cw_min * sampler.choice([1, 2, 8])
    capture = sampler.choice([0.0, 0.0, 1.0, 1.5])
    return MacConfig(
        cw_min=cw_min,
        cw_max=cw_max,
        sense=sampler.random() < 0.7,
        capture=capture,
    )


def _sample_noise(sampler):
    """Either an iid FaultConfig or a stateful adversary — the channel
    forbids passing both (iid subsumes FaultConfig)."""
    p = sampler.uniform(0.01, 0.6)
    choice = sampler.choice(
        ["faultless", "sender", "receiver", "gilbert", "jammer"]
    )
    if choice == "sender":
        return FaultConfig.sender(p), None
    if choice == "receiver":
        return FaultConfig.receiver(p), None
    if choice == "gilbert":
        return FaultConfig.faultless(), AdversaryConfig("gilbert_elliott", {})
    if choice == "jammer":
        return FaultConfig.faultless(), AdversaryConfig(
            "budgeted_jammer", {"budget": 8}
        )
    return FaultConfig.faultless(), None


class TestMacKernelEquivalence:
    def test_vectorized_matches_reference_across_sampled_configs(self):
        sampler = random.Random(0xAC0FF)
        for config_index in range(40):
            network = _sample_network(sampler, config_index)
            config = _sample_config(sampler)
            faults, adversary = _sample_noise(sampler)
            seed = sampler.randrange(2**31)
            vectorized = ContentionChannel(
                network,
                faults,
                rng=seed,
                kernel="vectorized",
                adversary=adversary,
                config=config,
            )
            reference = ContentionChannel(
                network,
                faults,
                rng=seed,
                kernel="scalar",
                adversary=adversary,
                config=config,
            )
            context = (
                f"config {config_index}: {network.name} n={network.n} "
                f"mac={config} faults={faults} adversary={adversary} "
                f"seed={seed}"
            )
            for _ in range(10):
                offers = _offers(sampler, network.n)
                got = vectorized.transmit(offers)
                want = reference.transmit_reference(offers)
                assert got == want, context
            assert (
                vectorized.counters.as_dict() == reference.counters.as_dict()
            ), context
            assert (vectorized._backoff == reference._backoff).all(), context
            assert (vectorized._stage == reference._stage).all(), context

    def test_same_seed_runs_are_byte_identical(self):
        def one_run():
            sampler = random.Random(7)
            channel = ContentionChannel(
                basic.grid(5, 5),
                rng=42,
                adversary=AdversaryConfig("gilbert_elliott", {}),
                config=MacConfig(cw_min=2, cw_max=16),
            )
            transcript = []
            for _ in range(30):
                transcript.append(channel.transmit(_offers(sampler, 25)))
            return transcript, channel.counters.as_dict()

        assert one_run() == one_run()
