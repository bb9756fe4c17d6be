"""Tests for random and layered topology generators."""

import networkx as nx
import pytest

from repro.topologies import registry
from repro.topologies.layered import bipartite_network, layered_network
from repro.topologies.random_graphs import gnp, random_tree
from repro.topologies.registry import TOPOLOGY_FAMILIES, make_topology


class TestGnp:
    def test_connected_even_when_sparse(self):
        # p = 0 forces the bridging logic to connect everything
        net = gnp(20, 0.0, rng=1)
        assert net.n == 20  # connectivity asserted by RadioNetwork itself

    def test_deterministic_per_seed(self):
        a = gnp(30, 0.2, rng=5)
        b = gnp(30, 0.2, rng=5)
        assert nx.utils.graphs_equal(a.graph, b.graph)

    def test_different_seeds_differ(self):
        a = gnp(30, 0.2, rng=5)
        b = gnp(30, 0.2, rng=6)
        assert not nx.utils.graphs_equal(a.graph, b.graph)

    def test_dense_is_complete(self):
        net = gnp(10, 1.0, rng=0)
        assert net.edge_count == 45

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            gnp(10, 1.5)


class TestRandomTree:
    def test_is_tree(self):
        net = random_tree(25, rng=3)
        assert net.edge_count == 24

    def test_single_node(self):
        assert random_tree(1).n == 1

    def test_deterministic(self):
        a, b = random_tree(12, rng=9), random_tree(12, rng=9)
        assert nx.utils.graphs_equal(a.graph, b.graph)


class TestBipartite:
    def test_complete_bipartite_structure(self):
        net = bipartite_network(3, 5)
        # source + 3 left + 5 right
        assert net.n == 9
        # each right node adjacent to all 3 left nodes
        right = [net.index_of(("R", j)) for j in range(5)]
        assert all(net.degree(r) == 3 for r in right)

    def test_sparse_stays_connected(self):
        net = bipartite_network(4, 10, edge_probability=0.0, rng=2)
        assert net.n == 15  # every right node got one fallback edge

    def test_levels(self):
        net = bipartite_network(3, 4)
        assert net.source_eccentricity == 2


class TestLayered:
    def test_levels_match_layers(self):
        net = layered_network(4, 3)
        assert net.source_eccentricity == 4
        layers = net.bfs_layers()
        assert [len(layer) for layer in layers] == [1, 3, 3, 3, 3]

    def test_single_layer(self):
        net = layered_network(1, 5)
        assert net.n == 6

    def test_sparse_connected(self):
        net = layered_network(3, 4, edge_probability=0.0, rng=7)
        assert net.source_eccentricity == 3


class TestRegistry:
    def test_all_families_build(self):
        for family in TOPOLOGY_FAMILIES:
            net = make_topology(family, 20, seed=1)
            assert net.n >= 2

    def test_deterministic(self):
        a = make_topology("gnp", 25, seed=4)
        registry._build.cache_clear()  # build b anew, not from the memo
        b = make_topology("gnp", 25, seed=4)
        assert a is not b
        assert nx.utils.graphs_equal(a.graph, b.graph)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            make_topology("klein-bottle", 10)

    def test_star_family_size(self):
        net = make_topology("star", 16)
        assert net.n == 16
