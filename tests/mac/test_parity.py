"""Property suite: the vectorized MAC kernel IS the scalar reference.

Mirrors ``tests/core/test_channel_vectorized.py`` for the contention
channel: random topologies, MAC configs, fault models, adversaries, and
offer sets; :meth:`ContentionChannel.transmit` and
:meth:`ContentionChannel.transmit_reference` must return equal
:class:`~repro.core.engine.RoundResult` objects, every field, and equal
counters, because both kernels consume one identical RNG stream (bulk
draws, ascending node order).
"""

import contextlib
import random
from unittest import mock

import numpy as np
import pytest

from repro.core.engine import Channel
from repro.core.faults import AdversaryConfig, FaultConfig
from repro.mac import ContentionChannel, MacConfig
from repro.mac.saturation import saturation_sim
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
    # ``transmit`` runs the numpy gate and feedback around the base
    # channel's kernel choice: threshold 0 resolves every slot vectorized,
    # 10**9 every slot on the scalar kernel (the mix small slots take)
    @pytest.mark.parametrize("threshold", [0, 10**9])
    def test_vectorized_matches_reference_across_sampled_configs(self, threshold):
        sampler = random.Random(0xAC0FF)
        for config_index in range(40):
            network = _sample_network(sampler, config_index)
            config = _sample_config(sampler)
            faults, adversary = _sample_noise(sampler)
            seed = sampler.randrange(2**31)
            vectorized = ContentionChannel(
                network, faults, rng=seed, adversary=adversary, config=config
            )
            reference = ContentionChannel(
                network, faults, rng=seed, adversary=adversary, config=config
            )
            context = (
                f"config {config_index}: {network.name} n={network.n} "
                f"mac={config} faults={faults} adversary={adversary} "
                f"seed={seed} threshold={threshold}"
            )
            for _ in range(10):
                offers = _offers(sampler, network.n)
                with mock.patch.object(Channel, "VECTORIZE_MIN_WORK", threshold):
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

    @pytest.mark.parametrize("sense", [True, False], ids=["sense", "no-sense"])
    def test_saturation_runs_match_across_threshold_pins(self, sense):
        """A long saturated run walks deep backoff stages; the vectorized
        and scalar collision rounds must leave identical statistics."""
        config = MacConfig(cw_min=4, cw_max=32, sense=sense)

        def pinned(threshold):
            with mock.patch.object(Channel, "VECTORIZE_MIN_WORK", threshold):
                return saturation_sim(12, config, slots=600, rng=3)

        vectorized = pinned(0)
        assert vectorized.transmissions > 0
        assert vectorized == pinned(10**9)


class TestMacKernelChoice:
    @pytest.mark.parametrize("capture", [0.0, 1.5], ids=["plain", "capture"])
    @pytest.mark.parametrize(
        "threshold,kernel", [(0, "vectorized"), (10**9, "scalar")]
    )
    def test_transmit_keeps_the_numpy_gate_and_feedback(
        self, threshold, kernel, capture
    ):
        """Every slot of ``transmit`` runs the numpy gate and feedback;
        only the collision round between them follows the threshold."""
        network = random_graphs.gnp(40, 0.2, rng=5)
        channel = ContentionChannel(
            network,
            FaultConfig.receiver(0.2),
            rng=8,
            config=MacConfig(cw_min=2, cw_max=8, capture=capture),
        )
        sampler = random.Random(threshold)
        names = [
            "_gate_vectorized",
            "_gate_scalar",
            "_resolve_vectorized",
            "_resolve_scalar",
            "_feedback_vectorized",
            "_feedback_scalar",
        ]
        with contextlib.ExitStack() as stack:
            stack.enter_context(
                mock.patch.object(Channel, "VECTORIZE_MIN_WORK", threshold)
            )
            spies = {
                name: stack.enter_context(
                    mock.patch.object(
                        ContentionChannel,
                        name,
                        autospec=True,
                        side_effect=getattr(ContentionChannel, name),
                    )
                )
                for name in names
            }
            results = [
                channel.transmit(_offers(sampler, network.n)) for _ in range(40)
            ]
        sending = sum(1 for result in results if len(result.broadcasters))
        assert sending > 0
        calls = {name: spy.call_count for name, spy in spies.items()}
        unused = "scalar" if kernel == "vectorized" else "vectorized"
        assert calls == {
            "_gate_vectorized": len(results),
            "_gate_scalar": 0,
            f"_resolve_{kernel}": sending,
            f"_resolve_{unused}": 0,
            "_feedback_vectorized": sending,
            "_feedback_scalar": 0,
        }
