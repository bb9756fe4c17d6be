"""Adaptive routing schedules (Definition 14) as a first-class framework.

Definition 14 gives adaptive routing maximal power: each round the schedule
sees (i) the entire topology and (ii) every tuple ``(u, i)`` such that node
u received message i in an earlier round, and dictates every node's action.
The star and single-link schedules in :mod:`repro.algorithms.multi` are
hand-specialized instances; this module provides the general interface plus
an executor on the real channel, so new adaptive strategies (and lower
bounds against *all* of them) can be expressed uniformly.

Implemented schedulers:

* :class:`GreedyFrontierScheduler` — a natural general-topology strategy:
  each round, pick the least-delivered message and have its holders run a
  Decay step toward nodes still missing it.
* :class:`RoundRobinSourceScheduler` — the Lemma 15 star strategy
  generalized: only the source broadcasts, cycling on the first
  not-yet-universal message.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.algorithms.base import ilog2
from repro.core.engine import Channel, node_array
from repro.core.faults import FaultConfig
from repro.core.network import RadioNetwork
from repro.core.trace import ChannelCounters
from repro.util.rng import RandomSource, spawn_rng
from repro.util.validation import check_positive

__all__ = [
    "AdaptiveOutcome",
    "AdaptiveScheduler",
    "GreedyFrontierScheduler",
    "RoundRobinSourceScheduler",
    "run_adaptive_schedule",
]


@dataclass(frozen=True)
class AdaptiveOutcome:
    """Result of executing an adaptive schedule."""

    success: bool
    rounds: int
    k: int
    completed_nodes: int
    total_nodes: int
    counters: ChannelCounters

    @property
    def rounds_per_message(self) -> float:
        return self.rounds / self.k


class AdaptiveScheduler(abc.ABC):
    """The Definition 14 interface.

    ``decide`` receives the full reception history as ``knowledge`` —
    ``knowledge[v]`` is the set of message indices v has received (the
    source starts with all of them) — and returns this round's broadcast
    assignment ``{node: message_index}``. A node assigned a message it
    does not hold is kept silent by the executor (the paper's routing
    rule).
    """

    def __init__(self, network: RadioNetwork, k: int) -> None:
        check_positive(k, "k")
        self.network = network
        self.k = k

    @abc.abstractmethod
    def decide(
        self,
        round_index: int,
        knowledge: list[set[int]],
        rng: RandomSource,
    ) -> dict[int, int]:
        """Pick this round's broadcasters given the full history."""


class RoundRobinSourceScheduler(AdaptiveScheduler):
    """Only the source broadcasts: the lowest message some node misses.

    On the star this is exactly Lemma 15's schedule; on general networks
    it is a (deliberately weak) single-broadcaster baseline.
    """

    def decide(
        self,
        round_index: int,
        knowledge: list[set[int]],
        rng: RandomSource,
    ) -> dict[int, int]:
        for message in range(self.k):
            if any(message not in have for have in knowledge):
                return {self.network.source: message}
        return {}


class GreedyFrontierScheduler(AdaptiveScheduler):
    """Holders of the least-complete message run a Decay step toward it.

    Each round: find the message with the most missing nodes, restrict to
    holders with at least one missing neighbor (the frontier), and let the
    frontier broadcast with the Decay probability ``2^-(t mod phase)`` —
    adaptivity picks *what* to send, randomness resolves *who*, which is
    the pattern the paper's possibility results (Lemmas 20-21) use.
    """

    def decide(
        self,
        round_index: int,
        knowledge: list[set[int]],
        rng: RandomSource,
    ) -> dict[int, int]:
        missing_counts = [
            (sum(1 for have in knowledge if message not in have), message)
            for message in range(self.k)
        ]
        worst_missing, message = max(missing_counts)
        if worst_missing == 0:
            return {}
        frontier = [
            v
            for v in self.network.nodes()
            if message in knowledge[v]
            and any(
                message not in knowledge[u] for u in self.network.neighbors[v]
            )
        ]
        phase = ilog2(self.network.n) + 1
        probability = 2.0 ** (-(round_index % phase))
        return {
            v: message for v in frontier if rng.bernoulli(probability)
        }


def run_adaptive_schedule(
    scheduler: AdaptiveScheduler,
    faults: FaultConfig,
    rng: "int | RandomSource | None" = None,
    max_rounds: "int | None" = None,
) -> AdaptiveOutcome:
    """Execute an adaptive scheduler against the real channel.

    The executor maintains the Definition 14 history (who received what,
    when), feeds it to the scheduler each round, silences nodes assigned
    messages they lack, and stops when every node holds all k messages or
    the budget runs out.
    """
    network = scheduler.network
    k = scheduler.k
    source = spawn_rng(rng)
    channel = Channel(network, faults, source.spawn())
    decide_rng = source.spawn()
    if max_rounds is None:
        log_n = ilog2(network.n) + 1
        max_rounds = int(
            80 * k * log_n * log_n / (1.0 - faults.p)
        ) + 400

    knowledge: list[set[int]] = [set() for _ in network.nodes()]
    knowledge[network.source] = set(range(k))

    rounds = 0
    while rounds < max_rounds:
        if all(len(have) == k for have in knowledge):
            break
        wanted = scheduler.decide(rounds, knowledge, decide_rng)
        actions = {
            node: message
            for node, message in wanted.items()
            if message in knowledge[node]
        }
        result = channel.transmit(node_array(sorted(actions)))
        rounds += 1
        for v, s in zip(result.receivers.tolist(), result.senders.tolist()):
            knowledge[v].add(actions[s])

    completed = sum(1 for have in knowledge if len(have) == k)
    return AdaptiveOutcome(
        success=completed == network.n,
        rounds=rounds,
        k=k,
        completed_nodes=completed,
        total_nodes=network.n,
        counters=channel.counters,
    )
