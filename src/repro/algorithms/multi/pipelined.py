"""Bipartite and pipelined adaptive routing (Lemmas 20-21).

Lemma 20: on a bipartite network where every left node knows the same k
messages, routing them to the right side takes `O(k log^2 n)` rounds: run
the Decay schedule for message 1 until it succeeds, then message 2, and so
on — adaptivity supplies the "until it succeeds".

Lemma 21: on a general network, break the broadcast into the BFS layering,
split the k messages into batches, and *pipeline* batches through layers
working 3 apart (layers l and l+3 never share a receiver, so concurrent
meta-rounds don't collide). Total `O(k log^2 n)` rounds for k >> D —
worst-case adaptive routing throughput `Ω(1/log^2 n)` with receiver
faults, which together with the Lemma 19 upper bound pins the worst-case
routing throughput at `Θ(1/log^2 n)` (Lemma 22).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.algorithms.base import ilog2
from repro.core.engine import Channel, node_array
from repro.core.faults import FaultConfig
from repro.core.network import RadioNetwork
from repro.util.rng import RandomSource, spawn_rng
from repro.util.validation import check_positive

__all__ = [
    "PipelinedOutcome",
    "bipartite_routing_broadcast",
    "pipelined_routing_broadcast",
]


@dataclass(frozen=True)
class PipelinedOutcome:
    """Result of a bipartite or pipelined routing run."""

    success: bool
    rounds: int
    k: int
    #: nodes that ended up holding all k messages
    completed_nodes: int
    total_nodes: int

    @property
    def rounds_per_message(self) -> float:
        return self.rounds / self.k


def bipartite_routing_broadcast(
    network: RadioNetwork,
    k: int,
    faults: FaultConfig,
    rng: "int | RandomSource | None" = None,
    max_rounds: Optional[int] = None,
) -> PipelinedOutcome:
    """Lemma 20's schedule across the first BFS layer boundary.

    The network's layer-1 nodes are pre-loaded with all k messages (the
    lemma's premise); the schedule routes them to layer 2 by per-message
    repeated Decay. Layers beyond 2, if any, are ignored.
    """
    check_positive(k, "k")
    source = spawn_rng(rng)
    layers = network.bfs_layers()
    if len(layers) < 3:
        raise ValueError(
            "bipartite routing needs at least source + two layers"
        )
    left, right = layers[1], layers[2]
    channel = Channel(network, faults, source.spawn())
    n = network.n
    phase_length = ilog2(n) + 1
    if max_rounds is None:
        max_rounds = int(
            60 * k * phase_length * phase_length / (1.0 - faults.p)
        ) + 200

    rounds = 0
    holders = list(left)
    completed: dict[int, set[int]] = {v: set() for v in right}
    for message_index in range(k):
        missing = set(right)
        step = 0
        while missing and rounds < max_rounds:
            i = step % phase_length
            probability = 2.0 ** (-i)
            fired = sorted(u for u in holders if source.bernoulli(probability))
            result = channel.transmit(node_array(fired))
            rounds += 1
            step += 1
            for v in result.receivers.tolist():
                if v in missing:
                    completed[v].add(message_index)
                    missing.discard(v)
        if missing:
            break

    done = sum(1 for v in right if len(completed[v]) == k)
    return PipelinedOutcome(
        success=done == len(right),
        rounds=rounds,
        k=k,
        completed_nodes=done,
        total_nodes=len(right),
    )


def pipelined_routing_broadcast(
    network: RadioNetwork,
    k: int,
    faults: FaultConfig,
    rng: "int | RandomSource | None" = None,
    batch_size: Optional[int] = None,
    meta_round_length: Optional[int] = None,
    max_meta_rounds: Optional[int] = None,
) -> PipelinedOutcome:
    """Lemma 21's pipelined schedule over the BFS layering.

    Messages are split into batches; in meta-round m every layer l with
    ``(m - l) % 3 == 0`` and a pending batch routes that batch to layer
    l+1 with the Lemma 20 sub-schedule. Batches advance one layer per
    owned meta-round, so batch j enters layer l at meta-round ``3j + l``.
    """
    check_positive(k, "k")
    source = spawn_rng(rng)
    layers = network.bfs_layers()
    depth = len(layers) - 1
    channel = Channel(network, faults, source.spawn())
    n = network.n
    phase_length = ilog2(n) + 1

    if batch_size is None:
        batch_size = max(1, k // max(1, depth))
    batches = [
        list(range(start, min(start + batch_size, k)))
        for start in range(0, k, batch_size)
    ]
    if meta_round_length is None:
        meta_round_length = int(
            12 * batch_size * phase_length * phase_length / (1.0 - faults.p)
        )
    if max_meta_rounds is None:
        max_meta_rounds = 3 * (len(batches) + depth) + 6

    # knowledge[v] = set of message indices node v holds
    knowledge: list[set[int]] = [set() for _ in range(n)]
    knowledge[network.source] = set(range(k))

    rounds = 0
    for meta in range(max_meta_rounds):
        # layer l pushes batch j = (meta - l) / 3 to layer l+1
        active: list[tuple[int, list[int]]] = []  # (layer, batch messages)
        for l in range(0, depth):
            if (meta - l) % 3 != 0:
                continue
            j = (meta - l) // 3
            if 0 <= j < len(batches):
                active.append((l, batches[j]))
        if not active:
            continue
        # inside the meta-round, each active layer works through its batch
        # messages sequentially with Decay sub-schedules
        progress: dict[int, int] = {l: 0 for l, _ in active}  # msg ptr
        for step in range(meta_round_length):
            actions = {}
            i = step % phase_length
            probability = 2.0 ** (-i)
            for l, batch in active:
                ptr = progress[l]
                if ptr >= len(batch):
                    continue
                message = batch[ptr]
                receivers = layers[l + 1]
                if all(message in knowledge[v] for v in receivers):
                    progress[l] = ptr + 1
                    continue
                for u in layers[l]:
                    if message in knowledge[u] and source.bernoulli(probability):
                        actions[u] = message
            if all(
                progress[l] >= len(batch) for l, batch in active
            ):
                break
            result = channel.transmit(node_array(sorted(actions)))
            rounds += 1
            for v, s in zip(result.receivers.tolist(), result.senders.tolist()):
                knowledge[v].add(actions[s])

    done = sum(1 for v in range(n) if len(knowledge[v]) == k)
    return PipelinedOutcome(
        success=done == n,
        rounds=rounds,
        k=k,
        completed_nodes=done,
        total_nodes=n,
    )
