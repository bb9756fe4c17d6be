"""FASTBC: the diameter-linear algorithm of Gąsieniec, Peleg and Xin [22].

Section 3.4.2: rounds alternate between *slow* (odd) and *fast* (even).
Odd rounds run a standard Decay step over all informed nodes, pushing the
message across non-fast edges. In even round ``2t``, a fast node at level
``l`` with rank ``r`` broadcasts iff ``t ≡ l - 6r (mod 6 r_max)`` — a wave
that carries the message down each fast stretch without interference
(guaranteed by the GBST property).

Faultless, this finishes in ``D + O(log n (log n + log 1/δ))`` rounds
(Lemma 8). Under faults it degrades to ``Θ(p/(1-p)·D·log n + D/(1-p))`` on
a path (Lemma 10): one dropped wave transmission forces the message to wait
``Θ(log n)`` rounds for the next wave.
"""

from __future__ import annotations

from typing import Optional

from repro.algorithms.base import (
    MESSAGE,
    BroadcastOutcome,
    MessageProtocol,
    as_adversary,
    budget_terms,
    ilog2,
    run_broadcast,
)
from repro.algorithms.schedule import (
    Schedule,
    ScheduleLayer,
    node_streams,
    wave_schedule,
)
from repro.core.faults import FaultConfig
from repro.core.network import RadioNetwork
from repro.core.packets import Packet
from repro.gbst.gbst import build_gbst
from repro.gbst.ranked_bfs import RankedBFSTree
from repro.util.rng import RandomSource, spawn_rng

__all__ = [
    "FastBCProtocol",
    "fastbc_broadcast",
    "fastbc_schedule",
    "make_fastbc_protocols",
]


class FastBCProtocol(MessageProtocol):
    """Per-node FASTBC over a shared GBST (known-topology algorithm).

    Parameters
    ----------
    node:
        This node's internal index.
    tree:
        The common GBST (known topology lets all nodes agree on it).
    rng:
        Private randomness for the Decay half.
    informed:
        True for the source.
    """

    def __init__(
        self,
        node: int,
        tree: RankedBFSTree,
        rng: RandomSource,
        informed: bool = False,
        decay_interleave: bool = True,
    ) -> None:
        super().__init__(rng, informed)
        self.node = node
        self.decay_interleave = decay_interleave
        self.level = tree.level[node]
        self.rank = tree.rank[node]
        self.is_fast = tree.is_fast(node)
        self.phase_length = ilog2(tree.network.n) + 1
        # Schedule period uses the Lemma 7 *bound* ceil(log2 n) rather than
        # the realized max rank: the paper's analysis (Lemmas 8 and 10)
        # treats the wave period as Theta(log n), and using the bound also
        # spares nodes from having to know the realized tree statistic.
        self.max_rank = max(1, ilog2(tree.network.n))

    def act(self, round_index: int) -> Optional[Packet]:
        if not self.informed:
            return None
        if round_index % 2 == 1:
            # slow transmission round: standard Decay step. Experiments
            # may disable the interleave to isolate the wave mechanism
            # (the object of Lemma 10's recurrence).
            if not self.decay_interleave:
                return None
            i = ((round_index - 1) // 2) % self.phase_length
            if self.rng.bernoulli(2.0 ** (-i)):
                return MESSAGE
            return None
        # fast transmission round 2t: wave schedule along fast stretches.
        # Fast node at level l, rank r broadcasts iff t = l - 6r (mod
        # 6 r_max); consecutive levels of a stretch fire in consecutive
        # even rounds, so the wave moves one hop per even round.
        if not self.is_fast:
            return None
        t = round_index // 2
        modulus = 6 * self.max_rank
        if (t - (self.level - 6 * self.rank)) % modulus == 0:
            return MESSAGE
        return None


def fastbc_schedule(tree: RankedBFSTree, decay_interleave: bool = True) -> Schedule:
    """:class:`FastBCProtocol`'s schedule over a shared GBST.

    Even round 2t fires the bucket of fast nodes with
    ``(level - 6·rank) mod 6·r_max = t mod 6·r_max``.
    """
    n = tree.network.n
    modulus = 6 * max(1, ilog2(n))
    buckets: list[list[int]] = [[] for _ in range(modulus)]
    for v in tree.fast_nodes():
        buckets[(tree.level[v] - 6 * tree.rank[v]) % modulus].append(v)
    return wave_schedule(n, decay_interleave, lambda t: buckets[t % modulus])


def make_fastbc_protocols(
    network: RadioNetwork,
    rng: RandomSource,
    decay_interleave: bool = True,
) -> list[FastBCProtocol]:
    """Build one FASTBC protocol per node over the network's GBST."""
    tree = build_gbst(network).tree
    return [
        FastBCProtocol(
            v,
            tree,
            rng.spawn(),
            informed=(v == network.source),
            decay_interleave=decay_interleave,
        )
        for v in network.nodes()
    ]


def fastbc_broadcast(
    network: RadioNetwork,
    faults: FaultConfig = FaultConfig.faultless(),
    rng: "int | RandomSource | None" = None,
    max_rounds: Optional[int] = None,
    decay_interleave: bool = True,
    adversary=None,
    channel=None,
) -> BroadcastOutcome:
    """Broadcast one message from the source with FASTBC.

    ``max_rounds`` defaults to a multiple of the *faulty* bound of
    Lemma 10 — under faults FASTBC legitimately needs ``Θ(D log n)``
    rounds, and the experiments measure exactly that degradation.
    """
    adversary = as_adversary(adversary)
    source = spawn_rng(rng)
    if max_rounds is None:
        log_n, depth, slowdown = budget_terms(network, faults, adversary, channel)
        max_rounds = int(60 * slowdown * log_n * (depth + log_n)) + 100
        if not decay_interleave:
            # pure-wave mode pays the full Theta(log n) wave period per
            # failure with no Decay assist
            max_rounds *= 4
    layer = ScheduleLayer(
        fastbc_schedule(build_gbst(network).tree, decay_interleave),
        node_streams(source, network.n),
        network.source,
    )
    return run_broadcast(
        network,
        layer,
        faults,
        source.spawn(),
        max_rounds,
        adversary=adversary,
        channel=channel,
    )
