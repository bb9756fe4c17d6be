"""The worst case topology (WCT) of Section 5.1.2 / Figure 2.

The paper builds WCT from the throughput lower-bound network of Ghaffari,
Haeupler and Khabbazian [19]: a source s, Θ(√n) *sender* nodes all adjacent
to s, and Θ̃(√n) *receivers*, each adjacent to a subset of senders chosen so
that **in any round, at most an O(1/log n) fraction of receivers hears
exactly one broadcaster** (Lemma 18). The PODC paper then replaces each
receiver by a *cluster* of Θ̃(√n) duplicate nodes with identical sender
neighborhoods, making reception cluster-atomic and letting the star lower
bound (Lemma 15) apply inside each cluster.

Since [19]'s construction is probabilistic, we implement the standard
degree-class form of it: clusters are split evenly into L = Θ(log n)
classes, and a class-i cluster is adjacent to a uniformly random set of
2^(i+1) senders. For any broadcast set T of senders, a class-i cluster
hears exactly one broadcaster with probability ≈ μ_i e^{-μ_i} where
μ_i = |T|·2^(i+1)/m doubles with i, so only O(1) classes contribute a
constant fraction and the total informed fraction is O(1/L) = O(1/log n).
The class property is *verified empirically* at construction time by
:meth:`WCTNetwork.max_singleton_fraction` in tests and experiment E11.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.core.network import RadioNetwork, adjacency_from_edges
from repro.util.rng import RandomSource, spawn_rng
from repro.util.validation import check_positive

__all__ = ["WCTNetwork", "worst_case_topology"]


@dataclass
class WCTNetwork:
    """A constructed worst case topology plus its structural metadata.

    Attributes
    ----------
    network:
        The simulable radio network (source + senders + cluster nodes).
    senders:
        Internal indices of the sender nodes (all adjacent to the source).
    clusters:
        Internal indices of each cluster's nodes; every node of a cluster
        has an identical sender neighborhood.
    adjacency:
        Boolean (num_clusters x num_senders) matrix; entry (j, i) is True
        iff cluster j is adjacent to sender i.
    classes:
        Degree-class index of each cluster.
    """

    network: RadioNetwork
    senders: list[int]
    clusters: list[list[int]]
    adjacency: np.ndarray
    classes: list[int]

    @property
    def num_senders(self) -> int:
        return len(self.senders)

    @property
    def num_clusters(self) -> int:
        return len(self.clusters)

    @property
    def cluster_size(self) -> int:
        return len(self.clusters[0])

    def informed_fraction(self, broadcast_senders: Iterable[int]) -> float:
        """Fraction of clusters hearing exactly one of ``broadcast_senders``.

        ``broadcast_senders`` are positions into :attr:`senders` (0-based
        sender numbers, not internal node indices). This is the quantity
        Lemma 18 bounds by O(1/log n).
        """
        mask = np.zeros(self.num_senders, dtype=bool)
        for s in broadcast_senders:
            if not 0 <= s < self.num_senders:
                raise ValueError(f"sender number {s} out of range")
            mask[s] = True
        hears = self.adjacency[:, mask].sum(axis=1)
        return float(np.mean(hears == 1))

    def max_singleton_fraction(
        self,
        trials_per_size: int = 20,
        rng: "int | RandomSource | None" = None,
    ) -> float:
        """Empirical max informed-cluster fraction over broadcast sets.

        Scans all singleton sets plus ``trials_per_size`` random sets of
        every power-of-two size, returning the largest informed fraction
        seen. Lemma 18 predicts this is O(1/log n).
        """
        source = spawn_rng(rng)
        best = 0.0
        for s in range(self.num_senders):
            best = max(best, self.informed_fraction([s]))
        size = 2
        while size <= self.num_senders:
            for _ in range(trials_per_size):
                chosen = source.sample(range(self.num_senders), size)
                best = max(best, self.informed_fraction(chosen))
            size *= 2
        return best

    def cluster_of_node(self, node: int) -> int:
        """Cluster index containing internal node index ``node`` (or -1)."""
        for j, members in enumerate(self.clusters):
            if node in members:
                return j
        return -1


def worst_case_topology(
    n: int, rng: "int | RandomSource | None" = None
) -> WCTNetwork:
    """Build a WCT instance with roughly ``n`` nodes.

    Parameters
    ----------
    n:
        Target node budget (>= 16). The construction uses ~√n senders,
        ~√n clusters of ~√n nodes each, as in Figure 2(b).
    rng:
        Seed / randomness for the probabilistic sender-set choices.
    """
    check_positive(n, "n")
    if n < 16:
        raise ValueError(f"WCT needs n >= 16 to be non-degenerate, got {n}")
    source = spawn_rng(rng)

    num_senders = max(4, math.isqrt(n))
    cluster_size = max(2, math.isqrt(n))
    num_classes = max(1, int(math.log2(num_senders)) - 1)
    budget = n - 1 - num_senders
    num_clusters = max(num_classes, budget // cluster_size)

    sender_labels = [("snd", i) for i in range(num_senders)]
    edges = [("s", sender) for sender in sender_labels]

    adjacency = np.zeros((num_clusters, num_senders), dtype=bool)
    classes: list[int] = []
    for j in range(num_clusters):
        cls = j % num_classes
        classes.append(cls)
        degree = min(num_senders, 2 ** (cls + 1))
        chosen = source.sample(range(num_senders), degree)
        for s in chosen:
            adjacency[j, s] = True
        for member in range(cluster_size):
            node = ("c", j, member)
            edges += [(sender_labels[s], node) for s in chosen]

    network = RadioNetwork(
        adjacency_from_edges(edges), source="s", name=f"wct-{n}"
    )
    senders = [network.index_of(("snd", i)) for i in range(num_senders)]
    clusters = [
        [network.index_of(("c", j, member)) for member in range(cluster_size)]
        for j in range(num_clusters)
    ]
    return WCTNetwork(
        network=network,
        senders=senders,
        clusters=clusters,
        adjacency=adjacency,
        classes=classes,
    )
