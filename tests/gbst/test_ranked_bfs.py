"""Tests for ranked BFS trees and the Lemma 7 rank bound."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gbst.ranked_bfs import RankedBFSTree, build_ranked_bfs_tree
from repro.topologies.basic import balanced_tree, caterpillar, grid, path, star
from repro.topologies.random_graphs import gnp, random_tree


class TestRankRule:
    def test_path_all_rank_one(self):
        tree = build_ranked_bfs_tree(path(6))
        # a path is a single chain: every node has exactly one child
        assert all(r == 1 for r in tree.rank)

    def test_star_hub_rank_two(self):
        tree = build_ranked_bfs_tree(star(5))
        hub = tree.network.source
        assert tree.rank[hub] == 2
        assert all(
            tree.rank[v] == 1 for v in tree.network.nodes() if v != hub
        )

    def test_star_single_leaf_rank_one(self):
        tree = build_ranked_bfs_tree(star(1))
        assert tree.rank[tree.network.source] == 1

    def test_balanced_binary_tree_rank_grows(self):
        # complete binary tree of height h has root rank h + 1
        tree = build_ranked_bfs_tree(balanced_tree(2, 3))
        assert tree.rank[tree.network.source] == 4

    def test_ranks_nonincreasing_towards_leaves(self):
        tree = build_ranked_bfs_tree(gnp(40, 0.15, rng=3))
        for v in tree.network.nodes():
            p = tree.parent[v]
            if p != -1:
                assert tree.rank[p] >= tree.rank[v]

    @given(
        n=st.integers(min_value=2, max_value=64),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_lemma7_rank_bound(self, n, seed):
        """Lemma 7: r_max <= ceil(log2 n)."""
        tree = build_ranked_bfs_tree(random_tree(n, rng=seed))
        assert tree.max_rank <= math.ceil(math.log2(n)) if n > 1 else 1

    @given(
        n=st.integers(min_value=4, max_value=48),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=20, deadline=None)
    def test_lemma7_on_gnp(self, n, seed):
        tree = build_ranked_bfs_tree(gnp(n, 0.2, rng=seed))
        assert tree.max_rank <= math.ceil(math.log2(n))


class TestTreeStructure:
    def test_bfs_levels_respected(self):
        tree = build_ranked_bfs_tree(grid(4, 4))
        for v in tree.network.nodes():
            p = tree.parent[v]
            if p != -1:
                assert tree.level[v] == tree.level[p] + 1

    def test_children_inverse_of_parent(self):
        tree = build_ranked_bfs_tree(grid(3, 3))
        for v in tree.network.nodes():
            for c in tree.children[v]:
                assert tree.parent[c] == v

    def test_tree_path(self):
        tree = build_ranked_bfs_tree(path(5))
        assert tree.tree_path(4) == [0, 1, 2, 3, 4]
        assert tree.tree_path(0) == [0]

    def test_root_property(self):
        tree = build_ranked_bfs_tree(path(3))
        assert tree.root == 0
        assert tree.parent[0] == -1

    def test_spanning(self):
        net = gnp(30, 0.2, rng=1)
        tree = build_ranked_bfs_tree(net)
        non_roots = sum(1 for v in net.nodes() if tree.parent[v] != -1)
        assert non_roots == net.n - 1

    @pytest.mark.parametrize(
        "network",
        [gnp(40, 0.15, rng=2), gnp(60, 0.3, rng=5), grid(5, 7)],
        ids=lambda network: network.name,
    )
    def test_parent_is_the_highest_degree_previous_level_neighbor(
        self, network
    ):
        """The degree rule: among v's previous-level neighbors the parent
        has the highest degree, the smaller id on a tie."""
        tree = build_ranked_bfs_tree(network)
        levels = network.levels()
        for v in network.nodes():
            if v == network.source:
                continue
            candidates = [
                u for u in network.neighbors[v] if levels[u] == levels[v] - 1
            ]
            best = max(network.degree(u) for u in candidates)
            assert tree.parent[v] == min(
                u for u in candidates if network.degree(u) == best
            )


class TestFastNodes:
    def test_path_interior_fast(self):
        tree = build_ranked_bfs_tree(path(5))
        # every node with a child shares rank 1 with it -> fast
        assert sorted(tree.fast_nodes()) == [0, 1, 2, 3]

    def test_star_hub_not_fast(self):
        tree = build_ranked_bfs_tree(star(4))
        assert tree.fast_nodes() == []

    def test_fast_child_unique(self):
        tree = build_ranked_bfs_tree(caterpillar(6, 2))
        for v in tree.fast_nodes():
            child = tree.fast_child(v)
            assert child is not None
            assert tree.rank[child] == tree.rank[v]
            same_rank = [
                c for c in tree.children[v] if tree.rank[c] == tree.rank[v]
            ]
            assert len(same_rank) == 1

    def test_fast_child_none_for_slow(self):
        tree = build_ranked_bfs_tree(star(4))
        assert tree.fast_child(tree.network.source) is None


class TestValidation:
    def test_rejects_wrong_parent_length(self):
        net = path(3)
        with pytest.raises(ValueError):
            RankedBFSTree(net, [-1, 0])

    def test_rejects_root_with_parent(self):
        net = path(3)
        with pytest.raises(ValueError):
            RankedBFSTree(net, [1, 0, 1])

    def test_rejects_non_bfs_edge(self):
        net = path(4)
        # node 3 claiming parent 1 skips a level
        with pytest.raises(ValueError):
            RankedBFSTree(net, [-1, 0, 1, 1])

    def test_rejects_non_graph_edge(self):
        net = grid(2, 3)
        parent = [-1] * net.n
        levels = net.levels()
        # assign valid parents first
        for v in net.nodes():
            if v == net.source:
                continue
            parent[v] = next(
                u for u in net.neighbors[v] if levels[u] == levels[v] - 1
            )
        # then corrupt one: find two level-2 nodes not adjacent
        two = [v for v in net.nodes() if levels[v] == 2]
        v = two[0]
        non_neighbor_prev = [
            u
            for u in net.nodes()
            if levels[u] == 1 and u not in net.neighbors[v]
        ]
        if non_neighbor_prev:
            parent[v] = non_neighbor_prev[0]
            with pytest.raises(ValueError):
                RankedBFSTree(net, parent)
