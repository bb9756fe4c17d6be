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
Both are scripts on the run driver (:func:`~repro.algorithms.base.run_script`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.algorithms.base import ilog2, run_script
from repro.core.engine import node_array
from repro.core.faults import FaultConfig
from repro.core.network import RadioNetwork
from repro.util.rng import RandomSource
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
    layers = network.bfs_layers()
    if len(layers) < 3:
        raise ValueError("bipartite routing needs at least source + two layers")
    left, right = layers[1], layers[2]
    phase_length = ilog2(network.n) + 1
    if max_rounds is None:
        max_rounds = int(60 * k * phase_length**2 / (1.0 - faults.p)) + 200

    completed: dict[int, set[int]] = {v: set() for v in right}

    def script(source):
        for message_index in range(k):
            missing = set(right)
            step = 0
            while missing:
                probability = 2.0 ** (-(step % phase_length))
                fired = [u for u in left if source.bernoulli(probability)]
                result = yield node_array(sorted(fired))
                step += 1
                for v in result.receivers.tolist():
                    if v in missing:
                        completed[v].add(message_index)
                        missing.discard(v)

    outcome = run_script(network, script, faults, rng, max_rounds)
    done = sum(1 for v in right if len(completed[v]) == k)
    return PipelinedOutcome(
        success=done == len(right),
        rounds=outcome.rounds,
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
    layers = network.bfs_layers()
    depth = len(layers) - 1
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

    def script(source):
        for meta in range(max_meta_rounds):
            # (layer, batch messages): layer l pushes batch j = (meta - l) / 3
            # to layer l+1
            active = [
                (l, batches[(meta - l) // 3])
                for l in range(depth)
                if (meta - l) % 3 == 0 and 0 <= (meta - l) // 3 < len(batches)
            ]
            if not active:
                continue
            # inside the meta-round, each active layer works through its
            # batch messages sequentially with Decay sub-schedules
            progress: dict[int, int] = {l: 0 for l, _ in active}  # msg ptr
            for step in range(meta_round_length):
                actions = {}
                probability = 2.0 ** (-(step % phase_length))
                for l, batch in active:
                    ptr = progress[l]
                    if ptr >= len(batch):
                        continue
                    message = batch[ptr]
                    if all(message in knowledge[v] for v in layers[l + 1]):
                        progress[l] = ptr + 1
                        continue
                    for u in layers[l]:
                        if message in knowledge[u] and source.bernoulli(probability):
                            actions[u] = message
                if all(progress[l] >= len(batch) for l, batch in active):
                    break
                result = yield node_array(sorted(actions))
                for v, s in zip(result.receivers.tolist(), result.senders.tolist()):
                    knowledge[v].add(actions[s])

    # the script ends within its meta-rounds, so this budget never binds
    max_rounds = max_meta_rounds * meta_round_length
    outcome = run_script(network, script, faults, rng, max_rounds)
    done = sum(1 for v in range(n) if len(knowledge[v]) == k)
    return PipelinedOutcome(
        success=done == n,
        rounds=outcome.rounds,
        k=k,
        completed_nodes=done,
        total_nodes=n,
    )
