"""The GBST validity predicate (Figure 1's property).

The paper states the condition as: *no two distinct nodes on the same level
and of the same rank r have two distinct T-parents both with rank r*, and
Figure 1 shows that a **graph** edge (the dashed yellow one) is what breaks
the property. Read operationally — which is how the FASTBC analysis uses
it — the condition guarantees that the simultaneous fast-round broadcasts
of same-rank fast nodes at the same level never collide at a fast child:

    For every fast edge (p, c) (p fast with rank r, c its same-rank child),
    c has no G-neighbor q != p at p's level that is also a fast node of
    rank r.

This is exactly non-interference along fast stretches: during a fast round
all broadcasting nodes at the same level share one rank, so the only way a
wave can be interrupted is a *second* same-rank fast node adjacent (in G)
to the wave's next hop. Nodes of different ranks transmit >= 6 levels apart
and never interfere on a BFS tree (Section 3.4.2).

The purely tree-structural reading of the sentence would declare even a
two-bristle broom (where no interference is possible — every node has a
single up-neighbor) invalid, so we implement the operational reading and
document the discrepancy here; tests cover a Figure-1-style example where
a single graph edge flips validity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.network import RadioNetwork
from repro.gbst.ranked_bfs import RankedBFSTree

__all__ = ["GBSTViolation", "fast_rivals", "gbst_violations", "is_gbst"]


@dataclass(frozen=True)
class GBSTViolation:
    """A fast child adjacent (in G) to a rival same-rank fast node.

    ``child`` is the fast child of ``parent``; ``rival`` is a distinct fast
    node of the same rank at the parent's level that is a graph neighbor of
    ``child`` — so the rival's fast-round broadcast collides with the
    parent's at the child.
    """

    child: int
    parent: int
    rival: int
    rank: int
    level: int


def fast_rivals(
    network: RadioNetwork,
    level: Sequence[int],
    rank: Sequence[int],
    fast_child: Sequence[Optional[int]],
    child: int,
    parent: int,
) -> list[int]:
    """The rivals of ``parent`` at its fast child ``child``.

    A rival is a G-neighbor of ``child``, other than ``parent``, that is a
    fast node at the parent's level and of the parent's rank. They come in
    ``network.neighbors[child]`` order. ``fast_child[v]`` is v's fast
    child, None when v is not fast.
    """
    parent_level = level[parent]
    r = rank[parent]
    return [
        q
        for q in network.neighbors[child]
        if q != parent
        and level[q] == parent_level
        and rank[q] == r
        and fast_child[q] is not None
    ]


def gbst_violations(tree: RankedBFSTree) -> list[GBSTViolation]:
    """All interference violations of the GBST property (empty iff GBST).

    Listed by ascending parent, each child's rivals in neighbor order.
    """
    network = tree.network
    level = tree.level
    rank = tree.rank
    fast_child = [tree.fast_child(v) for v in range(network.n)]
    return [
        GBSTViolation(
            child=child, parent=p, rival=q, rank=rank[p], level=level[p]
        )
        for p, child in enumerate(fast_child)
        if child is not None
        for q in fast_rivals(network, level, rank, fast_child, child, p)
    ]


def is_gbst(tree: RankedBFSTree) -> bool:
    """True iff the ranked BFS tree satisfies the GBST property."""
    return not gbst_violations(tree)
