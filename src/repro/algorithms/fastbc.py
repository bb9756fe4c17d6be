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
    BroadcastOutcome,
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
from repro.gbst.gbst import build_gbst
from repro.gbst.ranked_bfs import RankedBFSTree
from repro.util.rng import RandomSource, spawn_rng

__all__ = ["fastbc_broadcast", "fastbc_schedule"]


def fastbc_schedule(tree: RankedBFSTree, decay_interleave: bool = True) -> Schedule:
    """FASTBC's schedule over a shared GBST (known topology lets every
    node agree on it).

    Each node's rule, once informed: in odd round ``2t + 1`` it takes
    Decay's step ``2^-(t mod phase)`` on its own coin (or stays silent
    without ``decay_interleave``, which isolates the wave of Lemma 10's
    recurrence). In even round 2t a fast node at level ``l`` with rank
    ``r`` broadcasts iff ``t ≡ l - 6r (mod 6·r_max)``, so consecutive
    levels of a stretch fire in consecutive even rounds and the wave
    moves one hop per even round. ``r_max`` is the Lemma 7 bound
    ``ceil(log2 n)``, not the realized max rank: Lemmas 8 and 10 treat
    the wave period as Θ(log n), and the bound spares nodes from knowing
    the realized tree statistic.
    """
    n = tree.network.n
    modulus = 6 * max(1, ilog2(n))
    buckets: list[list[int]] = [[] for _ in range(modulus)]
    for v in tree.fast_nodes():
        buckets[(tree.level[v] - 6 * tree.rank[v]) % modulus].append(v)
    return wave_schedule(n, decay_interleave, lambda t: buckets[t % modulus])


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
