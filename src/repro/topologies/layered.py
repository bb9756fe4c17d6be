"""Layered networks for the pipelining arguments of Lemmas 20-21.

A *layered network* is a chain of node layers where consecutive layers form
a (complete or random) bipartite graph; the source forms layer 0. The
pipelined routing schedule of Lemma 21 works on exactly this BFS-layer
structure, and Lemma 20's bipartite sub-schedule broadcasts across one
layer boundary.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator

from repro.core.network import RadioNetwork, adjacency_from_edges
from repro.util.rng import RandomSource, spawn_rng
from repro.util.validation import check_fraction, check_positive

__all__ = ["layered_network", "bipartite_network"]


def bipartite_network(
    left: int,
    right: int,
    edge_probability: float = 1.0,
    rng: "int | RandomSource | None" = None,
) -> RadioNetwork:
    """A two-layer network: source -> ``left`` relays -> ``right`` sinks.

    The source is a single node adjacent to every left-layer node (so the
    left layer can be loaded with messages); left and right layers are
    connected by a bipartite graph where each edge appears independently
    with ``edge_probability`` (1.0 = complete bipartite). Right-layer nodes
    with no left neighbor are attached to one uniformly random left node to
    keep the network connected.
    """
    check_positive(left, "left")
    check_positive(right, "right")
    check_fraction(edge_probability, "edge_probability")
    source = spawn_rng(rng)
    lefts = [("L", i) for i in range(left)]
    rights = [("R", j) for j in range(right)]
    edges = chain(
        (("s", relay) for relay in lefts),
        _join(lefts, rights, edge_probability, source),
    )
    return RadioNetwork(
        adjacency_from_edges(edges, nodes=["s", *lefts, *rights]),
        source="s",
        name=f"bipartite-{left}x{right}-{edge_probability}",
    )


def layered_network(
    layers: int,
    width: int,
    edge_probability: float = 1.0,
    rng: "int | RandomSource | None" = None,
) -> RadioNetwork:
    """A source followed by ``layers`` layers of ``width`` nodes each.

    Consecutive layers are joined by independent bipartite graphs (see
    :func:`bipartite_network` for the edge rule); the source is adjacent to
    all of layer 0. BFS levels of the result are exactly the layers, which
    is the structure the Lemma 21 pipelining schedule needs.
    """
    check_positive(layers, "layers")
    check_positive(width, "width")
    check_fraction(edge_probability, "edge_probability")
    source = spawn_rng(rng)
    label = [[(layer, j) for j in range(width)] for layer in range(layers)]
    edges = chain(
        (("s", node) for node in label[0]),
        *(
            _join(previous, current, edge_probability, source)
            for previous, current in zip(label, label[1:])
        ),
    )
    return RadioNetwork(
        adjacency_from_edges(edges, nodes=["s", *chain.from_iterable(label)]),
        source="s",
        name=f"layered-{layers}x{width}-{edge_probability}",
    )


def _join(
    relays: list, sinks: list, edge_probability: float, source: RandomSource
) -> Iterator[tuple]:
    """The edges from ``relays`` to ``sinks``, drawn sink by sink as the
    adjacency is built: each edge with ``edge_probability``, and a sink
    left without one gets one uniformly random relay."""
    for sink in sinks:
        attached = False
        for relay in relays:
            if edge_probability >= 1.0 or source.bernoulli(edge_probability):
                yield relay, sink
                attached = True
        if not attached:
            yield relays[source.randint(0, len(relays) - 1)], sink
