"""The radio network: a topology container with precomputed adjacency.

The model (Section 3.1) needs each node's neighbour list and nothing
else. A :class:`RadioNetwork` is built from any mapping of node labels to
their neighbours' labels: a ``dict`` of lists, the ordered adjacency that
:func:`adjacency_from_edges` writes, or a networkx ``Graph`` (iterating it
yields the nodes, ``graph[u]`` the neighbours of ``u``). Nodes are
relabeled to contiguous integers ``0..n-1`` in the mapping's order for the
simulation hot path, and each node's neighbours keep the mapping's order
in the CSR arrays; the original labels are retained for reporting. The
network keeps no graph object. Distances from the source (BFS levels) and
the diameter are computed lazily and cached.

The fixed topology families build their adjacency with
:func:`adjacency_from_edges`, which inserts nodes and neighbours in the
order networkx's ``Graph.add_edge`` would, so a family has the labels and
CSR arrays of its networkx twin without loading networkx.
"""

from __future__ import annotations

import itertools
from typing import Hashable, Iterable, Mapping, Optional

import numpy as np

from repro.core.errors import TopologyError

__all__ = ["RadioNetwork", "adjacency_from_edges"]


def adjacency_from_edges(
    edges: Iterable[tuple[Hashable, Hashable]], nodes: Iterable[Hashable] = ()
) -> dict[Hashable, dict[Hashable, None]]:
    """An undirected adjacency in networkx's insertion order.

    ``nodes`` are added first, in order. Each edge ``(u, v)`` then adds
    ``u`` and ``v`` if they are new (``u`` first) and appends each to the
    other's neighbours, unless the edge is already there: the node and
    neighbour order of ``Graph.add_nodes_from(nodes)`` followed by
    ``Graph.add_edges_from(edges)``. Each node maps to an insertion-ordered
    ``dict`` whose keys are its neighbours.
    """
    adjacency: dict[Hashable, dict[Hashable, None]] = {node: {} for node in nodes}
    for u, v in edges:
        if u not in adjacency:
            adjacency[u] = {}
        if v not in adjacency:
            adjacency[v] = {}
        adjacency[u][v] = None
        adjacency[v][u] = None
    return adjacency


class RadioNetwork:
    """An undirected, connected radio network with a designated source.

    Parameters
    ----------
    adjacency:
        A mapping from each node label to its neighbours' labels. Every
        neighbour must be a node, listed once; every edge must appear in
        both directions; there must be at least one node, no self-loop,
        and the network must be connected.
    source:
        The broadcast source node (a label of ``adjacency``). Defaults to
        the first node in iteration order.
    name:
        Optional human-readable topology name for reports.
    """

    def __init__(
        self,
        adjacency: Mapping[Hashable, Iterable[Hashable]],
        source: Optional[Hashable] = None,
        name: str = "",
    ) -> None:
        labels = list(adjacency)
        if not labels:
            raise TopologyError("radio network requires at least one node")
        if source is None:
            source = labels[0]

        self.name = name or "network"
        self._labels: list[Hashable] = labels
        self._index_of: dict[Hashable, int] = {
            label: i for i, label in enumerate(labels)
        }
        self.n = len(labels)
        if source not in self._index_of:
            raise TopologyError(f"source {source!r} is not a node of the graph")
        self.source: int = self._index_of[source]

        # adjacency as tuples of ints — the engine iterates these heavily
        lookup = self._index_of.__getitem__
        try:
            self.neighbors: list[tuple[int, ...]] = [
                tuple(map(lookup, adjacency[label])) for label in labels
            ]
        except KeyError as missing:
            raise TopologyError(
                f"neighbour {missing.args[0]!r} is not a node of the graph"
            ) from None

        # CSR mirror of the adjacency for the vectorized channel kernel:
        # neighbors of node v are indices[indptr[v]:indptr[v + 1]].
        self.indptr = np.zeros(self.n + 1, dtype=np.int32)
        self.indptr[1:] = np.cumsum(
            [len(adj) for adj in self.neighbors], dtype=np.int64
        )
        self.indices = np.fromiter(
            itertools.chain.from_iterable(self.neighbors),
            dtype=np.int32,
            count=int(self.indptr[-1]),
        )
        # make_topology shares one network across runs: keep it read-only
        self.indptr.flags.writeable = False
        self.indices.flags.writeable = False

        self._check_edges()
        self._levels: Optional[list[int]] = None
        self._diameter: Optional[int] = None
        self._eccentricity: Optional[int] = None
        if min(self.levels()) < 0:
            raise TopologyError(
                "radio network must be connected (broadcast must be able "
                "to reach every node)"
            )

    def _check_edges(self) -> None:
        """Reject self-loops, repeated neighbours and one-way edges: whole
        CSR arrays compared at once, not pair by pair."""
        n = self.n
        heads = np.repeat(np.arange(n, dtype=np.int64), np.diff(self.indptr))
        tails = self.indices.astype(np.int64)
        loops = np.flatnonzero(heads == tails)
        if loops.size:
            label = self._labels[int(heads[loops[0]])]
            raise TopologyError(
                f"radio networks must not contain self-loops ({label!r})"
            )
        forward = heads * n + tails
        ordered = np.sort(forward)
        repeated = np.flatnonzero(ordered[1:] == ordered[:-1])
        if repeated.size:
            u, v = divmod(int(ordered[repeated[0]]), n)
            raise TopologyError(
                f"neighbour {self._labels[v]!r} is listed twice for "
                f"{self._labels[u]!r}"
            )
        backward = tails * n + heads
        if not np.array_equal(ordered, np.sort(backward)):
            slot = int(np.flatnonzero(~np.isin(forward, backward))[0])
            u, v = self._labels[int(heads[slot])], self._labels[int(tails[slot])]
            raise TopologyError(
                f"edge {u!r} -> {v!r} has no reverse: radio networks are "
                "undirected"
            )

    # -- structure ----------------------------------------------------------

    @property
    def edge_count(self) -> int:
        return int(self.indptr[-1]) // 2

    def label_of(self, index: int) -> Hashable:
        """Original label of internal node ``index``."""
        return self._labels[index]

    def index_of(self, label: Hashable) -> int:
        """Internal index of an original node label."""
        try:
            return self._index_of[label]
        except KeyError:
            raise TopologyError(f"{label!r} is not a node of {self.name}") from None

    def degree(self, index: int) -> int:
        return len(self.neighbors[index])

    def csr_slots(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The CSR slots of ``nodes``' neighbor slices, concatenated.

        Returns ``(slots, lens)``: ``indices[slots]`` lists the neighbors
        of each node of the int64 array ``nodes`` in turn, and ``lens``
        holds their degrees.
        """
        starts = self.indptr[nodes].astype(np.int64)
        lens = self.indptr[nodes + 1].astype(np.int64) - starts
        seg_starts = np.cumsum(lens) - lens
        slots = np.arange(int(lens.sum()), dtype=np.int64) + np.repeat(
            starts - seg_starts, lens
        )
        return slots, lens

    @property
    def max_degree(self) -> int:
        return max(len(adj) for adj in self.neighbors)

    # -- metrics ------------------------------------------------------------

    def _distances(self, start: int) -> list[int]:
        """BFS distance from ``start`` for every node; -1 if unreached."""
        dist = [-1] * self.n
        dist[start] = 0
        frontier = [start]
        level = 0
        while frontier:
            level += 1
            next_frontier = []
            for u in frontier:
                for v in self.neighbors[u]:
                    if dist[v] < 0:
                        dist[v] = level
                        next_frontier.append(v)
            frontier = next_frontier
        return dist

    def levels(self) -> list[int]:
        """BFS distance from the source for every node (index order)."""
        if self._levels is None:
            self._levels = self._distances(self.source)
        return self._levels

    @property
    def source_eccentricity(self) -> int:
        """Largest BFS distance from the source (depth of broadcast)."""
        if self._eccentricity is None:
            self._eccentricity = max(self.levels())
        return self._eccentricity

    @property
    def diameter(self) -> int:
        """Graph diameter: one BFS from each node, O(n·m) — cached."""
        if self._diameter is None:
            self._diameter = max(
                max(self._distances(node)) for node in range(self.n)
            )
        return self._diameter

    def bfs_layers(self) -> list[list[int]]:
        """Nodes grouped by BFS level from the source (level 0 first)."""
        levels = self.levels()
        layers: list[list[int]] = [[] for _ in range(max(levels) + 1)]
        for node, level in enumerate(levels):
            layers[level].append(node)
        return layers

    def nodes(self) -> Iterable[int]:
        """Internal node indices 0..n-1."""
        return range(self.n)

    def __repr__(self) -> str:
        return (
            f"RadioNetwork(name={self.name!r}, n={self.n}, "
            f"m={self.edge_count}, source={self.label_of(self.source)!r})"
        )
