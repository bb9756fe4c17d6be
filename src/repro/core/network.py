"""The radio network graph: topology container with precomputed adjacency.

A :class:`RadioNetwork` wraps an undirected, connected networkx graph. Nodes
are relabeled to contiguous integers ``0..n-1`` for the simulation hot path;
the original labels are retained for reporting. Distances from the source
(BFS levels) and the diameter are computed lazily and cached.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Optional

import networkx as nx
import numpy as np

from repro.core.errors import TopologyError

__all__ = ["RadioNetwork"]


class RadioNetwork:
    """An undirected, connected radio network with a designated source.

    Parameters
    ----------
    graph:
        Undirected networkx graph. Must be connected, contain at least one
        node, and contain no self-loops.
    source:
        The broadcast source node (a node of ``graph``). Defaults to the
        first node in iteration order.
    name:
        Optional human-readable topology name for reports.
    """

    def __init__(
        self,
        graph: nx.Graph,
        source: Optional[Hashable] = None,
        name: str = "",
    ) -> None:
        if graph.number_of_nodes() == 0:
            raise TopologyError("radio network requires at least one node")
        if graph.is_directed():
            raise TopologyError("radio networks are undirected")
        if any(u == v for u, v in graph.edges()):
            raise TopologyError("radio networks must not contain self-loops")
        if not nx.is_connected(graph):
            raise TopologyError(
                "radio network must be connected (broadcast must be able "
                "to reach every node)"
            )

        original_nodes = list(graph.nodes())
        if source is None:
            source = original_nodes[0]
        if source not in graph:
            raise TopologyError(f"source {source!r} is not a node of the graph")

        self.name = name or "network"
        self._labels: list[Hashable] = original_nodes
        self._index_of: dict[Hashable, int] = {
            label: i for i, label in enumerate(original_nodes)
        }
        self.n = len(original_nodes)
        self.source: int = self._index_of[source]

        # adjacency as tuples of ints — the engine iterates these heavily
        self.neighbors: list[tuple[int, ...]] = [() for _ in range(self.n)]
        for label, i in self._index_of.items():
            self.neighbors[i] = tuple(
                self._index_of[v] for v in graph.neighbors(label)
            )

        # CSR mirror of the adjacency for the vectorized channel kernel:
        # neighbors of node v are indices[indptr[v]:indptr[v + 1]].
        self.indptr = np.zeros(self.n + 1, dtype=np.int32)
        self.indptr[1:] = np.cumsum(
            [len(adj) for adj in self.neighbors], dtype=np.int64
        )
        self.indices = np.fromiter(
            (v for adj in self.neighbors for v in adj),
            dtype=np.int32,
            count=int(self.indptr[-1]),
        )
        # make_topology shares one network across runs: keep it read-only
        self.indptr.flags.writeable = False
        self.indices.flags.writeable = False

        self._graph = graph
        self._levels: Optional[list[int]] = None
        self._diameter: Optional[int] = None
        self._eccentricity: Optional[int] = None

    # -- structure ----------------------------------------------------------

    @property
    def graph(self) -> nx.Graph:
        """The underlying networkx graph (original labels)."""
        return self._graph

    @property
    def edge_count(self) -> int:
        return self._graph.number_of_edges()

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

    def levels(self) -> list[int]:
        """BFS distance from the source for every node (index order)."""
        if self._levels is None:
            dist = [-1] * self.n
            dist[self.source] = 0
            frontier = [self.source]
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
            self._levels = dist
        return self._levels

    @property
    def source_eccentricity(self) -> int:
        """Largest BFS distance from the source (depth of broadcast)."""
        if self._eccentricity is None:
            self._eccentricity = max(self.levels())
        return self._eccentricity

    @property
    def diameter(self) -> int:
        """Graph diameter. Computed on demand; O(n·m) — cached."""
        if self._diameter is None:
            if self.n == 1:
                self._diameter = 0
            else:
                self._diameter = nx.diameter(self._graph)
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
