"""The fixed families against their networkx twins.

The fixed families build their adjacency without networkx
(``repro.core.network.adjacency_from_edges``). Each must equal, label for
label and CSR slot for CSR slot, the network built from the networkx
graph it used to be built from: networkx's own generator where there is
one, otherwise the same ``Graph.add_edge`` sequence.
"""

import math

import networkx as nx
import numpy as np
import pytest

from repro.core.network import RadioNetwork
from repro.topologies import basic, layered, wct
from repro.util.rng import spawn_rng


def _caterpillar(spine, legs):
    g = nx.Graph()
    for i in range(spine - 1):
        g.add_edge(("s", i), ("s", i + 1))
    if spine == 1:
        g.add_node(("s", 0))
    for i in range(spine):
        for leg in range(legs):
            g.add_edge(("s", i), ("l", i, leg))
    return g


def _bramble(spine, bag_size):
    g = nx.Graph()
    if spine == 1:
        g.add_node(("v", 0))
    for i in range(spine - 1):
        g.add_edge(("v", i), ("v", i + 1))
    for i in range(1, spine - 1):
        for b in range(bag_size):
            g.add_edge(("v", i - 1), ("b", i, b))
            g.add_edge(("b", i, b), ("v", i + 1))
    return g


def _layered(layers, width, edge_probability, seed):
    source = spawn_rng(seed)
    g = nx.Graph()
    g.add_node("s")
    for i in range(width):
        g.add_edge("s", (0, i))
    for layer in range(1, layers):
        for j in range(width):
            g.add_node((layer, j))
            attached = False
            for i in range(width):
                if edge_probability >= 1.0 or source.bernoulli(edge_probability):
                    g.add_edge((layer - 1, i), (layer, j))
                    attached = True
            if not attached:
                g.add_edge((layer - 1, source.randint(0, width - 1)), (layer, j))
    return g


def _bipartite(left, right, edge_probability, seed):
    source = spawn_rng(seed)
    g = nx.Graph()
    g.add_node("s")
    for i in range(left):
        g.add_edge("s", ("L", i))
    for j in range(right):
        g.add_node(("R", j))
        attached = False
        for i in range(left):
            if edge_probability >= 1.0 or source.bernoulli(edge_probability):
                g.add_edge(("L", i), ("R", j))
                attached = True
        if not attached:
            g.add_edge(("L", source.randint(0, left - 1)), ("R", j))
    return g


def _wct(n, seed):
    source = spawn_rng(seed)
    num_senders = max(4, math.isqrt(n))
    cluster_size = max(2, math.isqrt(n))
    num_classes = max(1, int(math.log2(num_senders)) - 1)
    num_clusters = max(num_classes, (n - 1 - num_senders) // cluster_size)
    g = nx.Graph()
    g.add_node("s")
    for i in range(num_senders):
        g.add_edge("s", ("snd", i))
    for j in range(num_clusters):
        degree = min(num_senders, 2 ** (j % num_classes + 1))
        chosen = source.sample(range(num_senders), degree)
        for member in range(cluster_size):
            for s in chosen:
                g.add_edge(("snd", s), ("c", j, member))
    return g


# (family, arguments, the networkx twin, its source label)
CASES = [
    ("single_link", (), nx.path_graph(2), 0),
    *[("path", (n,), nx.path_graph(n), 0) for n in (1, 2, 3, 16, 101)],
    *[("star", (k,), nx.star_graph(k), 0) for k in (1, 2, 7, 40)],
    *[("cycle", (n,), nx.cycle_graph(n), 0) for n in (3, 4, 9, 50)],
    *[("complete", (n,), nx.complete_graph(n), 0) for n in (1, 2, 3, 12)],
    *[
        ("grid", (r, c), nx.grid_2d_graph(r, c), (0, 0))
        for r, c in ((1, 1), (1, 2), (2, 1), (2, 2), (3, 5), (8, 8))
    ],
    *[
        ("balanced_tree", (b, h), nx.balanced_tree(b, h), 0)
        for b, h in ((1, 0), (2, 0), (1, 4), (2, 3), (3, 3))
    ],
    *[
        ("caterpillar", (s, k), _caterpillar(s, k), ("s", 0))
        for s, k in ((1, 0), (1, 1), (2, 0), (5, 2))
    ],
    *[
        ("bramble", (s, k), _bramble(s, k), ("v", 0))
        for s, k in ((1, 0), (2, 3), (3, 0), (6, 3))
    ],
    *[
        ("barbell", (m1, m2), nx.barbell_graph(m1, m2), 0)
        for m1, m2 in ((2, 0), (2, 1), (3, 2), (5, 4))
    ],
]

# the seeded builders: (family, arguments, keyword arguments, the twin)
SEEDED = [
    *[
        ("layered_network", (layers, width), {"edge_probability": p, "rng": seed},
         _layered(layers, width, p, seed))
        for layers, width in ((1, 1), (1, 4), (3, 2), (4, 5))
        for p, seed in ((1.0, 0), (0.4, 3), (0.0, 7))
    ],
    *[
        ("bipartite_network", (left, right), {"edge_probability": p, "rng": seed},
         _bipartite(left, right, p, seed))
        for left, right in ((1, 1), (2, 5), (6, 3))
        for p, seed in ((1.0, 0), (0.4, 3), (0.0, 7))
    ],
]


def _labels(network):
    return [network.label_of(i) for i in network.nodes()]


def _assert_same(network, twin):
    assert _labels(network) == _labels(twin)
    assert network.source == twin.source
    np.testing.assert_array_equal(network.indptr, twin.indptr)
    np.testing.assert_array_equal(network.indices, twin.indices)
    assert network.indptr.dtype == twin.indptr.dtype == np.int32
    assert network.indices.dtype == twin.indices.dtype == np.int32


@pytest.mark.parametrize(
    "family, args, graph, source",
    CASES,
    ids=[f"{case[0]}{case[1]}" for case in CASES],
)
def test_fixed_family_matches_networkx(family, args, graph, source):
    _assert_same(
        getattr(basic, family)(*args), RadioNetwork(graph, source=source)
    )


@pytest.mark.parametrize(
    "family, args, kwargs, graph",
    SEEDED,
    ids=[f"{case[0]}{case[1]}-p{case[2]['edge_probability']}" for case in SEEDED],
)
def test_layered_builders_match_networkx(family, args, kwargs, graph):
    _assert_same(
        getattr(layered, family)(*args, **kwargs), RadioNetwork(graph, source="s")
    )


@pytest.mark.parametrize("n, seed", [(16, 0), (64, 5), (300, 11)])
def test_wct_matches_networkx(n, seed):
    _assert_same(
        wct.worst_case_topology(n, rng=seed).network,
        RadioNetwork(_wct(n, seed), source="s"),
    )
