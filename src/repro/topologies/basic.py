"""Deterministic topology families.

Each generator returns a :class:`~repro.core.network.RadioNetwork` with the
source placed where the corresponding experiment wants it (e.g. path and
caterpillar sources sit at one end so the source eccentricity equals the
diameter).
"""

from __future__ import annotations

from itertools import chain, combinations, pairwise

from repro.core.network import RadioNetwork, adjacency_from_edges
from repro.util.validation import check_positive

__all__ = [
    "single_link",
    "path",
    "star",
    "cycle",
    "complete",
    "grid",
    "balanced_tree",
    "caterpillar",
    "barbell",
]


def single_link() -> RadioNetwork:
    """The two-node topology of Appendix A: source s and receiver t."""
    return RadioNetwork(adjacency_from_edges([(0, 1)]), source=0, name="single-link")


def path(n: int) -> RadioNetwork:
    """A path of n nodes with the source at the left end (diameter n-1)."""
    check_positive(n, "n")
    adjacency = adjacency_from_edges(pairwise(range(n)), nodes=range(n))
    return RadioNetwork(adjacency, source=0, name=f"path-{n}")


def star(n_leaves: int) -> RadioNetwork:
    """The Lemma 15/16 star: a source adjacent to ``n_leaves`` nodes.

    The paper's star has the source at the hub and "n other adjacent
    nodes"; the returned network has ``n_leaves + 1`` nodes total.
    """
    check_positive(n_leaves, "n_leaves")
    edges = ((0, leaf) for leaf in range(1, n_leaves + 1))
    adjacency = adjacency_from_edges(edges, nodes=range(n_leaves + 1))
    return RadioNetwork(adjacency, source=0, name=f"star-{n_leaves}")


def cycle(n: int) -> RadioNetwork:
    """A cycle of n >= 3 nodes."""
    if n < 3:
        raise ValueError(f"a cycle requires n >= 3 nodes, got {n}")
    edges = chain(pairwise(range(n)), [(n - 1, 0)])
    adjacency = adjacency_from_edges(edges, nodes=range(n))
    return RadioNetwork(adjacency, source=0, name=f"cycle-{n}")


def complete(n: int) -> RadioNetwork:
    """The complete graph K_n: one collision domain, diameter 1.

    The single-collision-domain topology the Bianchi saturation model
    (:mod:`repro.mac.analytic`) describes — every node hears, and
    carrier-senses, every other.
    """
    check_positive(n, "n")
    adjacency = adjacency_from_edges(combinations(range(n), 2), nodes=range(n))
    return RadioNetwork(adjacency, source=0, name=f"complete-{n}")


def grid(rows: int, cols: int) -> RadioNetwork:
    """A rows x cols 2-D grid, source at one corner."""
    check_positive(rows, "rows")
    check_positive(cols, "cols")
    # one label object per node: the adjacency keeps each edge's labels,
    # so edges built from fresh tuples would hold a copy per edge end
    label = [[(i, j) for j in range(cols)] for i in range(rows)]
    edges = chain(
        ((label[i][j], label[i - 1][j]) for i in range(1, rows) for j in range(cols)),
        ((row[j], row[j - 1]) for row in label for j in range(1, cols)),
    )
    adjacency = adjacency_from_edges(edges, nodes=chain.from_iterable(label))
    return RadioNetwork(adjacency, source=(0, 0), name=f"grid-{rows}x{cols}")


def balanced_tree(branching: int, height: int) -> RadioNetwork:
    """A complete ``branching``-ary tree of the given height, source at root."""
    check_positive(branching, "branching")
    if height < 0:
        raise ValueError(f"height must be >= 0, got {height}")
    if branching == 1:
        n = height + 1
    else:
        n = (branching ** (height + 1) - 1) // (branching - 1)
    # breadth-first numbering: node c's parent is (c - 1) // branching
    edges = (((child - 1) // branching, child) for child in range(1, n))
    adjacency = adjacency_from_edges(edges, nodes=range(n))
    return RadioNetwork(adjacency, source=0, name=f"tree-{branching}-{height}")


def caterpillar(spine: int, legs_per_node: int) -> RadioNetwork:
    """A spine path with ``legs_per_node`` pendant leaves on each spine node.

    Useful for FASTBC experiments: large diameter (the spine) with enough
    extra nodes to drive up ``log n`` independently of ``D``.
    """
    check_positive(spine, "spine")
    if legs_per_node < 0:
        raise ValueError(f"legs_per_node must be >= 0, got {legs_per_node}")
    edges = [(("s", i), ("s", i + 1)) for i in range(spine - 1)]
    edges += [
        (("s", i), ("l", i, leg))
        for i in range(spine)
        for leg in range(legs_per_node)
    ]
    adjacency = adjacency_from_edges(edges, nodes=[("s", 0)])
    return RadioNetwork(
        adjacency, source=("s", 0), name=f"caterpillar-{spine}x{legs_per_node}"
    )


def bramble(spine: int, bag_size: int) -> RadioNetwork:
    """A path thickened by same-level bags of parallel relays.

    Spine nodes v_0..v_{spine-1} form a path; around each interior node
    v_i sits a *bag* of ``bag_size`` nodes adjacent to v_{i-1} and
    v_{i+1} (skipping v_i). Each spine node therefore has
    ``2(bag_size+1)``-dense collision neighborhoods — Decay must thread
    the "exactly one broadcaster" needle through bag_size+1 informed
    neighbors per hop — while the bags also offer parallel relay routes,
    so the frontier advances through whichever route wins first. The
    spine remains a clean fast stretch for FASTBC (bag nodes are never
    fast), making this a denser-interference companion to ``path`` for
    the Lemma 8 / Lemma 10 / Theorem 11 comparisons.
    """
    check_positive(spine, "spine")
    if bag_size < 0:
        raise ValueError(f"bag_size must be >= 0, got {bag_size}")
    edges = [(("v", i), ("v", i + 1)) for i in range(spine - 1)]
    for i in range(1, spine - 1):
        for b in range(bag_size):
            edges += [(("v", i - 1), ("b", i, b)), (("b", i, b), ("v", i + 1))]
    adjacency = adjacency_from_edges(edges, nodes=[("v", 0)])
    return RadioNetwork(
        adjacency, source=("v", 0), name=f"bramble-{spine}x{bag_size}"
    )


def barbell(clique_size: int, bridge_length: int) -> RadioNetwork:
    """Two cliques joined by a path; source in the first clique.

    Exercises the interaction of dense collision domains with a long
    bottleneck — a stress case for Decay-style backoff.
    """
    if clique_size < 2:
        raise ValueError(f"clique_size must be >= 2, got {clique_size}")
    if bridge_length < 0:
        raise ValueError(f"bridge_length must be >= 0, got {bridge_length}")
    # networkx's barbell_graph order: the first clique and the bridge's
    # interior, the bridge, the second clique, then the two joins
    m1, m2 = clique_size, bridge_length
    edges = chain(
        combinations(range(m1), 2),
        pairwise(range(m1, m1 + m2)) if m2 > 1 else (),
        combinations(range(m1 + m2, 2 * m1 + m2), 2),
        [(m1 - 1, m1)],
        [(m1 + m2 - 1, m1 + m2)] if m2 > 0 else (),
    )
    adjacency = adjacency_from_edges(edges, nodes=range(m1 + max(0, m2 - 1)))
    return RadioNetwork(
        adjacency, source=0, name=f"barbell-{clique_size}-{bridge_length}"
    )
