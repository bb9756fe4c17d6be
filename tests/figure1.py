"""A Figure-1-style example: one graph, two BFS trees, one valid GBST.

The paper's Figure 1 shows a single graph with two ranked BFS trees: in
1(a) a graph edge (dashed yellow) connects a fast child of one stretch to a
rival fast node of the same rank and level, breaking the GBST property; in
1(b) a different parent assignment avoids the interference.

The exact 18-node drawing is not recoverable from the paper text, so this
module ships a minimal example with the same structure: two parallel
rank-1 chains hanging off the source, plus one cross edge ``(b1, a2)``.
Parenting ``a2`` under ``a1`` leaves two rival same-rank fast nodes
(``a1`` and ``b1``) adjacent to the fast child ``a2`` — not a GBST.
Re-parenting ``a2`` under ``b1`` merges the competing waves and yields a
valid GBST.
"""

from __future__ import annotations

from repro.core.network import RadioNetwork, adjacency_from_edges
from repro.gbst.ranked_bfs import RankedBFSTree

__all__ = [
    "FIGURE1_EDGES",
    "figure1_network",
    "figure1_tree_invalid",
    "figure1_tree_valid",
]

_CHAIN_LENGTH = 4

#: the two chains from the source, grown in step, then the "yellow"
#: interference edge
FIGURE1_EDGES = [
    ("s", "a1"), ("s", "b1"),
    ("a1", "a2"), ("b1", "b2"),
    ("a2", "a3"), ("b2", "b3"),
    ("a3", "a4"), ("b3", "b4"),
    ("b1", "a2"),
]


def figure1_network() -> RadioNetwork:
    """The shared graph: two chains from the source plus one cross edge."""
    return RadioNetwork(
        adjacency_from_edges(FIGURE1_EDGES), source="s", name="figure1"
    )


def _parent_vector(network: RadioNetwork, parent_of: dict[str, str]) -> list[int]:
    parent = [-1] * network.n
    for child, par in parent_of.items():
        parent[network.index_of(child)] = network.index_of(par)
    return parent


def figure1_tree_invalid() -> RankedBFSTree:
    """Tree (a): ``a2`` parented under ``a1`` — interference at ``a2``."""
    network = figure1_network()
    parent_of = {"a1": "s", "b1": "s", "a2": "a1", "b2": "b1"}
    for i in range(3, _CHAIN_LENGTH + 1):
        parent_of[f"a{i}"] = f"a{i-1}"
        parent_of[f"b{i}"] = f"b{i-1}"
    return RankedBFSTree(network, _parent_vector(network, parent_of))


def figure1_tree_valid() -> RankedBFSTree:
    """Tree (b): ``a2`` parented under ``b1`` — waves merged, valid GBST."""
    network = figure1_network()
    parent_of = {"a1": "s", "b1": "s", "a2": "b1", "b2": "b1"}
    for i in range(3, _CHAIN_LENGTH + 1):
        parent_of[f"a{i}"] = f"a{i-1}"
        parent_of[f"b{i}"] = f"b{i-1}"
    return RankedBFSTree(network, _parent_vector(network, parent_of))
