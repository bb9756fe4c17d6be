"""Ranked BFS trees (Section 3.4.2).

A ranked BFS tree is a BFS tree rooted at the source where every node
carries an integral *rank*, assigned inductively:

* every leaf has rank 1;
* a non-leaf whose children have maximum rank r gets rank r if **exactly
  one** child attains r, and rank r+1 otherwise.

This is the Strahler-number rule; Lemma 7 (Gaber-Mansour) bounds the
maximum rank by ``ceil(log2 n)``, which tests verify property-based.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.network import RadioNetwork

__all__ = ["RankedBFSTree", "build_ranked_bfs_tree", "compute_ranks", "rank_rule"]


class RankedBFSTree:
    """A BFS tree over a :class:`RadioNetwork` with Gaber-Mansour ranks.

    Attributes
    ----------
    network:
        The underlying radio network.
    parent:
        ``parent[v]`` is v's tree parent (internal index), -1 for the root.
    children:
        ``children[v]`` lists v's tree children.
    level:
        BFS level of each node (distance from the source).
    rank:
        Gaber-Mansour rank of each node.
    """

    def __init__(self, network: RadioNetwork, parent: Sequence[int]) -> None:
        n = network.n
        if len(parent) != n:
            raise ValueError(f"parent vector has {len(parent)} entries for n={n}")
        levels = network.levels()
        root = network.source
        if parent[root] != -1:
            raise ValueError("the source must have parent -1")
        children: list[list[int]] = [[] for _ in range(n)]
        for v in range(n):
            p = parent[v]
            if v == root:
                continue
            if not 0 <= p < n:
                raise ValueError(f"node {v} has invalid parent {p}")
            if levels[p] != levels[v] - 1:
                raise ValueError(
                    f"parent edge {p}->{v} is not a BFS edge "
                    f"(levels {levels[p]} -> {levels[v]})"
                )
            if v not in network.neighbors[p]:
                raise ValueError(f"parent edge {p}->{v} is not a graph edge")
            children[p].append(v)

        self.network = network
        self.parent = list(parent)
        self.children = children
        self.level = levels
        self.rank = compute_ranks(self.parent, children, root, levels)

    @property
    def root(self) -> int:
        return self.network.source

    @property
    def max_rank(self) -> int:
        return max(self.rank)

    def is_fast(self, v: int) -> bool:
        """A node is *fast* if some tree child has the same rank as it."""
        r = self.rank[v]
        return any(self.rank[c] == r for c in self.children[v])

    def fast_child(self, v: int) -> Optional[int]:
        """The unique same-rank child of a fast node (None if not fast).

        The rank rule guarantees at most one child attains the parent's
        rank, so "the" is justified.
        """
        r = self.rank[v]
        for c in self.children[v]:
            if self.rank[c] == r:
                return c
        return None

    def fast_nodes(self) -> list[int]:
        """All fast nodes of the tree."""
        return [v for v in range(self.network.n) if self.is_fast(v)]

    def tree_path(self, v: int) -> list[int]:
        """The tree path from the root to v (inclusive)."""
        path = [v]
        while self.parent[path[-1]] != -1:
            path.append(self.parent[path[-1]])
        path.reverse()
        return path


def rank_rule(
    kids: Sequence[int], rank: Sequence[int]
) -> tuple[int, Optional[int]]:
    """The rank rule at one node whose children ``kids`` are ranked.

    Returns the node's rank and its fast child: the one child attaining
    the maximum child rank when exactly one does, else None.
    """
    if not kids:
        return 1, None
    ranks = [rank[c] for c in kids]
    best = max(ranks)
    if ranks.count(best) == 1:
        return best, kids[ranks.index(best)]
    return best + 1, None


def compute_ranks(
    parent: Sequence[int],
    children: Sequence[Sequence[int]],
    root: int,
    levels: Sequence[int],
) -> list[int]:
    """Compute Gaber-Mansour ranks bottom-up (deepest level first)."""
    n = len(parent)
    order = sorted(range(n), key=lambda v: -levels[v])
    rank = [0] * n
    for v in order:
        rank[v] = rank_rule(children[v], rank)[0]
    return rank


def build_ranked_bfs_tree(network: RadioNetwork) -> RankedBFSTree:
    """Build a ranked BFS tree over ``network``.

    Each node's parent is the previous-level neighbor of highest degree
    (the smaller id on a tie), which empirically concentrates fast
    stretches and reduces GBST repair work.
    """
    levels = network.levels()
    parent = [-1] * network.n
    for v in range(network.n):
        if v == network.source:
            continue
        candidates = [
            u for u in network.neighbors[v] if levels[u] == levels[v] - 1
        ]
        if not candidates:
            raise ValueError(
                f"node {v} has no previous-level neighbor; network invariant broken"
            )
        parent[v] = max(candidates, key=lambda u: (network.degree(u), -u))
    return RankedBFSTree(network, parent)
