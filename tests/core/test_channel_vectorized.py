"""Property test: the vectorized channel kernel IS the scalar reference.

Samples random topologies, fault models, probabilities, seeds, and
broadcast sets, and checks that :meth:`Channel.transmit` (vectorized
kernel) and :meth:`Channel.transmit_reference` (scalar kernel) return
equal :class:`~repro.core.engine.RoundResult` objects — every field, in
the same order — and the same counters. Both kernels draw fault coins
through the same bulk calls, so agreement is exact, not statistical.
``transmit`` is pinned to the vectorized kernel by patching
``Channel.VECTORIZE_MIN_WORK`` to 0.
"""

import random
from unittest import mock

import networkx as nx
import numpy as np
import pytest

from repro.core.engine import Channel
from repro.core.faults import FaultConfig
from repro.core.network import RadioNetwork
from repro.topologies import basic, random_graphs

HUB = np.array([0], dtype=np.int64)


def _sample_network(sampler: random.Random, config_index: int) -> RadioNetwork:
    kind = sampler.choice(["gnp", "star", "path", "cycle", "grid", "caterpillar"])
    n = sampler.randint(2, 80)
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


def _sample_faults(sampler: random.Random) -> FaultConfig:
    p = sampler.uniform(0.0, 0.9)
    return sampler.choice(
        [FaultConfig.faultless(), FaultConfig.sender(p), FaultConfig.receiver(p)]
    )


class TestKernelEquivalence:
    def test_vectorized_matches_reference_across_sampled_configs(self):
        """Hypothesis-style loop over >= 50 sampled (topology, faults, seed)
        configurations, several rounds each with random broadcast sets."""
        sampler = random.Random(0xC5E)
        for config_index in range(60):
            network = _sample_network(sampler, config_index)
            faults = _sample_faults(sampler)
            seed = sampler.randrange(2**31)
            vectorized = Channel(network, faults, rng=seed)
            reference = Channel(network, faults, rng=seed)
            context = (
                f"config {config_index}: {network.name} n={network.n} "
                f"faults={faults} seed={seed}"
            )
            for _ in range(8):
                count = sampler.randint(0, network.n)
                chosen = sorted(sampler.sample(range(network.n), count))
                broadcasters = np.array(chosen, dtype=np.int64)
                with mock.patch.object(Channel, "VECTORIZE_MIN_WORK", 0):
                    got = vectorized.transmit(broadcasters)
                want = reference.transmit_reference(broadcasters)
                assert got == want, context
            assert vectorized.counters.as_dict() == reference.counters.as_dict(), (
                context
            )

    def test_auto_kernel_matches_reference_on_large_rounds(self):
        """Above the dispatch threshold auto takes the vectorized kernel;
        outcomes must still be identical."""
        network = basic.star(800)
        for seed in range(5):
            auto = Channel(network, FaultConfig.receiver(0.3), rng=seed)
            reference = Channel(network, FaultConfig.receiver(0.3), rng=seed)
            for _ in range(4):
                got = auto.transmit(HUB)
                want = reference.transmit_reference(HUB)
                assert got == want, f"seed {seed}"


def _kernel_calls(channel, rounds):
    """Drive ``rounds`` through ``transmit``.

    Returns the round results and the (vectorized, scalar) kernel calls.
    """
    with mock.patch.object(
        Channel,
        "_resolve_vectorized",
        autospec=True,
        side_effect=Channel._resolve_vectorized,
    ) as vectorized, mock.patch.object(
        Channel,
        "_resolve_scalar",
        autospec=True,
        side_effect=Channel._resolve_scalar,
    ) as scalar:
        results = [channel.transmit(broadcasters) for broadcasters in rounds]
    return results, (vectorized.call_count, scalar.call_count)


class TestKernelChoice:
    """``transmit`` picks each round's kernel by its gather work alone."""

    @pytest.mark.parametrize(
        "who,extra,kernel",
        [
            ("hub", -1, "scalar"),
            ("hub", 0, "vectorized"),
            ("leaves", -1, "scalar"),
            ("leaves", 0, "vectorized"),
        ],
    )
    def test_gather_work_at_the_threshold(self, who, extra, kernel):
        """A round gathering ``VECTORIZE_MIN_WORK`` pairs goes vectorized,
        one pair fewer stays scalar: from the hub alone (the max-degree
        bound decides) and from many leaves (the degree sum decides)."""
        threshold = Channel.VECTORIZE_MIN_WORK
        if who == "hub":
            network = basic.star(threshold + extra)
            broadcasters = HUB
        else:
            network = basic.star(threshold)
            broadcasters = np.arange(1, threshold + extra + 1, dtype=np.int64)
        faults = FaultConfig.receiver(0.3)
        channel = Channel(network, faults, rng=4)
        reference = Channel(network, faults, rng=4)
        [got], calls = _kernel_calls(channel, [broadcasters])
        assert calls == ((1, 0) if kernel == "vectorized" else (0, 1))
        assert got == reference.transmit_reference(broadcasters)

    @pytest.mark.parametrize(
        "threshold,kernel", [(0, "vectorized"), (10**9, "scalar")]
    )
    def test_threshold_pin_routes_every_round(self, threshold, kernel):
        """Pinning the threshold sends every non-empty round to one kernel."""
        network = random_graphs.gnp(60, 0.1, rng=3)
        pick = random.Random(threshold)
        rounds = []
        for _ in range(30):
            count = pick.randint(0, network.n)
            chosen = sorted(pick.sample(range(network.n), count))
            rounds.append(np.array(chosen, dtype=np.int64))
        resolved = sum(1 for broadcasters in rounds if len(broadcasters))
        channel = Channel(network, FaultConfig.sender(0.2), rng=9)
        with mock.patch.object(Channel, "VECTORIZE_MIN_WORK", threshold):
            _, calls = _kernel_calls(channel, rounds)
        assert calls == ((resolved, 0) if kernel == "vectorized" else (0, resolved))


class TestCSRAdjacency:
    def test_csr_matches_neighbor_lists(self):
        for seed in range(10):
            network = random_graphs.gnp(40, 0.15, rng=seed)
            assert network.indptr.shape == (network.n + 1,)
            assert network.indices.shape == (2 * network.edge_count,)
            for v in network.nodes():
                start, stop = int(network.indptr[v]), int(network.indptr[v + 1])
                assert tuple(network.indices[start:stop]) == network.neighbors[v]

    def test_csr_single_node(self):
        network = RadioNetwork(nx.empty_graph(1))
        assert list(network.indptr) == [0, 0]
        assert network.indices.size == 0
