"""Random topology families (seeded, always connected).

``gnp`` draws an Erdős–Rényi graph and, if disconnected, adds the minimum
set of bridging edges between components. This keeps the advertised edge
density while satisfying the model's connectivity requirement — broadcast
is ill-defined on a disconnected network.

Both families draw through networkx's own seeded generators, so they
import networkx when they build: no other family and no run needs it. A
fork pool whose batch holds one of them imports it before it forks
(:func:`repro.topologies.registry.preload`).
"""

from __future__ import annotations

from repro.core.network import RadioNetwork
from repro.util.rng import RandomSource, spawn_rng
from repro.util.validation import check_fraction, check_positive

__all__ = ["gnp", "random_tree"]


def gnp(
    n: int, edge_probability: float, rng: "int | RandomSource | None" = None
) -> RadioNetwork:
    """A connected Erdős–Rényi G(n, p) network with source node 0.

    Parameters
    ----------
    n:
        Number of nodes.
    edge_probability:
        Independent probability of each potential edge.
    rng:
        Seed or random source (deterministic given the seed).
    """
    import networkx as nx

    check_positive(n, "n")
    check_fraction(edge_probability, "edge_probability")
    source = spawn_rng(rng)
    seed = source.randint(0, 2**31)
    # the sparse sampler runs in O(n + m) instead of O(n^2) — at the
    # thousands-of-nodes scale of the vectorized substrate the dense
    # sampler dominates topology construction time
    if edge_probability < 0.25:
        g = nx.fast_gnp_random_graph(n, edge_probability, seed=seed)
    else:
        g = nx.gnp_random_graph(n, edge_probability, seed=seed)
    # join the components by one random edge between consecutive ones
    components = [sorted(c) for c in nx.connected_components(g)]
    for first, second in zip(components, components[1:]):
        u = first[source.randint(0, len(first) - 1)]
        v = second[source.randint(0, len(second) - 1)]
        g.add_edge(u, v)
    return RadioNetwork(g, source=0, name=f"gnp-{n}-{edge_probability}")


def random_tree(n: int, rng: "int | RandomSource | None" = None) -> RadioNetwork:
    """A uniformly random labeled tree on n nodes, source node 0."""
    import networkx as nx

    check_positive(n, "n")
    source = spawn_rng(rng)
    if n == 1:
        g = nx.Graph()
        g.add_node(0)
    else:
        g = nx.random_labeled_tree(n, seed=source.randint(0, 2**31))
    return RadioNetwork(g, source=0, name=f"random-tree-{n}")
