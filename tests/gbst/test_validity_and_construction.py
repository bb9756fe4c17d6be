"""Tests for GBST validity (Figure 1) and the construction repair loop."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.network import RadioNetwork
from repro.gbst.figure1 import (
    figure1_network,
    figure1_tree_invalid,
    figure1_tree_valid,
)
from repro.gbst.gbst import build_gbst
from repro.gbst.ranked_bfs import build_ranked_bfs_tree
from repro.gbst.validity import gbst_violations, is_gbst
from repro.topologies.basic import (
    balanced_tree,
    caterpillar,
    cycle,
    grid,
    path,
    star,
)
from repro.topologies.random_graphs import gnp, random_tree


class TestFigure1:
    """The paper's Figure 1: same graph, parent choice flips GBST validity."""

    def test_invalid_tree_detected(self):
        tree = figure1_tree_invalid()
        assert not is_gbst(tree)

    def test_violation_identifies_cross_edge(self):
        tree = figure1_tree_invalid()
        net = tree.network
        violations = gbst_violations(tree)
        assert violations
        v = violations[0]
        # the interference is at a2, between parent a1 and rival b1
        labels = {net.label_of(v.child), net.label_of(v.parent), net.label_of(v.rival)}
        assert labels == {"a2", "a1", "b1"}

    def test_valid_tree_accepted(self):
        assert is_gbst(figure1_tree_valid())

    def test_build_gbst_fixes_figure1(self):
        result = build_gbst(figure1_network())
        assert result.valid
        assert is_gbst(result.tree)


class TestValidityOnSimpleFamilies:
    def test_path_tree_is_gbst(self):
        assert is_gbst(build_ranked_bfs_tree(path(10)))

    def test_star_tree_is_gbst(self):
        assert is_gbst(build_ranked_bfs_tree(star(8)))

    def test_broom_is_gbst(self):
        """Two parallel bristles in a *tree* cannot interfere (no cross
        graph edges), so the operational property holds."""
        assert is_gbst(build_ranked_bfs_tree(balanced_tree(2, 4)))

    def test_violation_dataclass_fields(self):
        violations = gbst_violations(figure1_tree_invalid())
        v = violations[0]
        assert v.rank == 1
        assert v.level == 1


class TestBuildGBST:
    @pytest.mark.parametrize(
        "network",
        [
            path(12),
            star(9),
            cycle(9),
            grid(5, 5),
            caterpillar(10, 2),
            balanced_tree(3, 3),
        ],
        ids=lambda net: net.name,
    )
    def test_deterministic_families_converge(self, network):
        result = build_gbst(network)
        assert result.valid, (
            f"{network.name}: {result.remaining_violations} violations "
            f"after {result.repair_iterations} iterations"
        )

    @given(
        n=st.integers(min_value=2, max_value=50),
        seed=st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_trees_converge(self, n, seed):
        result = build_gbst(random_tree(n, rng=seed))
        assert result.valid

    @given(
        n=st.integers(min_value=4, max_value=40),
        seed=st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=25, deadline=None)
    def test_gnp_converges(self, n, seed):
        result = build_gbst(gnp(n, 0.15, rng=seed))
        assert result.valid

    def test_result_reports_iterations(self):
        result = build_gbst(path(5))
        assert result.repair_iterations == 0  # already valid
        assert result.remaining_violations == 0

    def test_figure1_needs_repair(self):
        # A level-1 node x joined to s and a1 ties a1's degree with b1's,
        # so the degree heuristic parents a2 under a1 (the lower index)
        # and leaves Figure 1's violation for the repair loop.
        graph = figure1_network().graph.copy()
        graph.add_edge("s", "x")
        graph.add_edge("x", "a1")
        network = RadioNetwork(graph, source="s", name="figure1-plus-x")
        label = network.label_of
        initial = build_ranked_bfs_tree(network)
        assert [
            (label(v.child), label(v.parent), label(v.rival))
            for v in gbst_violations(initial)
        ] == [("a2", "a1", "b1")]

        result = build_gbst(network)
        assert result.repair_iterations == 1
        assert result.valid
        assert result.remaining_violations == 0
        assert label(result.tree.parent[network.index_of("a2")]) == "b1"
