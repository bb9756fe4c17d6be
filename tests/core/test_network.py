"""Tests for the RadioNetwork topology container."""

import networkx as nx
import pytest

from repro.core.errors import TopologyError
from repro.core.network import RadioNetwork


class TestValidation:
    def test_rejects_empty(self):
        with pytest.raises(TopologyError):
            RadioNetwork(nx.Graph())

    def test_rejects_directed(self):
        with pytest.raises(TopologyError):
            RadioNetwork(nx.DiGraph([(0, 1)]))

    def test_rejects_disconnected(self):
        g = nx.Graph()
        g.add_edge(0, 1)
        g.add_node(2)
        with pytest.raises(TopologyError):
            RadioNetwork(g)

    def test_rejects_self_loop(self):
        g = nx.Graph([(0, 1), (1, 1)])
        with pytest.raises(TopologyError):
            RadioNetwork(g)

    def test_rejects_foreign_source(self):
        with pytest.raises(TopologyError):
            RadioNetwork(nx.path_graph(3), source=99)

    def test_single_node_allowed(self):
        g = nx.Graph()
        g.add_node("only")
        net = RadioNetwork(g)
        assert net.n == 1 and net.diameter == 0


class TestMappingInput:
    """Any mapping of node labels to neighbour labels builds a network;
    the network checks the mapping itself."""

    def test_dict_builds_the_same_network_as_a_graph(self):
        adjacency = {"a": ["b", "c"], "b": ["a"], "c": ["a"]}
        net = RadioNetwork(adjacency, source="b")
        twin = RadioNetwork(nx.Graph([("a", "b"), ("a", "c")]), source="b")
        assert net.neighbors == twin.neighbors == [(1, 2), (0,), (0,)]
        assert (net.source, net.edge_count, net.diameter) == (1, 2, 2)
        assert net.indices.tolist() == twin.indices.tolist() == [1, 2, 0, 0]

    def test_rejects_empty(self):
        with pytest.raises(TopologyError, match="at least one node"):
            RadioNetwork({})

    def test_rejects_a_neighbour_that_is_not_a_node(self):
        with pytest.raises(TopologyError, match="neighbour 'z' is not a node"):
            RadioNetwork({"a": ["b"], "b": ["a", "z"]})

    def test_rejects_a_one_way_edge(self):
        with pytest.raises(TopologyError, match="'a' -> 'c' has no reverse"):
            RadioNetwork({"a": ["b", "c"], "b": ["a", "c"], "c": ["b"]})

    def test_rejects_a_repeated_neighbour(self):
        with pytest.raises(TopologyError, match="'a' is listed twice for 'b'"):
            RadioNetwork({"a": ["b"], "b": ["a", "a"]})

    def test_rejects_a_self_loop(self):
        with pytest.raises(TopologyError, match=r"self-loops \('b'\)"):
            RadioNetwork({"a": ["b"], "b": ["a", "b"]})

    def test_rejects_a_disconnected_input(self):
        with pytest.raises(TopologyError, match="must be connected"):
            RadioNetwork({"a": ["b"], "b": ["a"], "c": ["d"], "d": ["c"]})

    def test_rejects_a_foreign_source(self):
        with pytest.raises(TopologyError, match="source 'x' is not a node"):
            RadioNetwork({"a": []}, source="x")


class TestIndexing:
    def test_labels_roundtrip(self):
        g = nx.path_graph(["a", "b", "c"])
        net = RadioNetwork(g, source="b")
        for label in "abc":
            assert net.label_of(net.index_of(label)) == label

    def test_source_resolved_to_index(self):
        net = RadioNetwork(nx.path_graph(["a", "b", "c"]), source="c")
        assert net.label_of(net.source) == "c"

    def test_default_source_is_first_node(self):
        net = RadioNetwork(nx.path_graph(["x", "y"]))
        assert net.label_of(net.source) == "x"

    def test_unknown_label_raises(self):
        net = RadioNetwork(nx.path_graph(2))
        with pytest.raises(TopologyError):
            net.index_of("nope")

    def test_neighbors_are_symmetric(self):
        net = RadioNetwork(nx.cycle_graph(5))
        for u in net.nodes():
            for v in net.neighbors[u]:
                assert u in net.neighbors[v]

    def test_degree(self):
        net = RadioNetwork(nx.star_graph(4))  # center + 4 leaves
        degrees = sorted(net.degree(u) for u in net.nodes())
        assert degrees == [1, 1, 1, 1, 4]


class TestMetrics:
    def test_path_levels(self):
        net = RadioNetwork(nx.path_graph(5), source=0)
        assert net.levels() == [0, 1, 2, 3, 4]

    def test_levels_from_middle(self):
        net = RadioNetwork(nx.path_graph(5), source=2)
        assert net.levels() == [2, 1, 0, 1, 2]

    def test_eccentricity_and_diameter(self):
        net = RadioNetwork(nx.path_graph(6), source=0)
        assert net.source_eccentricity == 5
        assert net.diameter == 5

    def test_eccentricity_less_than_diameter_possible(self):
        net = RadioNetwork(nx.path_graph(7), source=3)
        assert net.source_eccentricity == 3
        assert net.diameter == 6

    def test_bfs_layers_partition_nodes(self):
        net = RadioNetwork(nx.random_labeled_tree(20, seed=1), source=0)
        layers = net.bfs_layers()
        flat = [u for layer in layers for u in layer]
        assert sorted(flat) == list(range(20))

    def test_bfs_layers_level_consistency(self):
        net = RadioNetwork(nx.cycle_graph(8), source=0)
        for level, layer in enumerate(net.bfs_layers()):
            for u in layer:
                assert net.levels()[u] == level

    def test_max_degree(self):
        net = RadioNetwork(nx.star_graph(6))
        assert net.max_degree == 6

    def test_edge_count(self):
        net = RadioNetwork(nx.cycle_graph(7))
        assert net.edge_count == 7

    def test_repr_mentions_name(self):
        net = RadioNetwork(nx.path_graph(3), name="demo")
        assert "demo" in repr(net)
