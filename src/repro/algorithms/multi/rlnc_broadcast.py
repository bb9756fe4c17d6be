"""Multi-message broadcast via random linear network coding (Lemmas 12-13).

Following Haeupler [24] and Ghaffari et al. [21], a single-message
algorithm whose broadcast *pattern* does not depend on what a node has
received can carry k messages: whenever the pattern tells a node to
broadcast, it transmits a fresh random GF(2^8) combination of every coded
packet it currently holds. A reception is *innovative* unless the sender's
knowledge subspace is contained in the receiver's, which over GF(2^8)
happens with probability at most 1/256 per reception; each node decodes
after k innovative receptions.

The pattern *is* the single-message schedule: a node that holds a coded
packet broadcasts a fresh combination in the rounds where the
single-message algorithm would have it send the message, drawing the
coins on its own :class:`~repro.util.rng.RandomSource`:

* **RLNC-Decay** (Lemma 12): Decay's schedule
  (:func:`~repro.algorithms.decay.decay_schedule`) —
  `O(D log n + k log n + log^2 n)` rounds, i.e. throughput
  `Ω(1/log n)`.
* **RLNC-Robust-FASTBC** (Lemma 13): Robust FASTBC's fixed slow/fast
  schedule (:func:`~repro.algorithms.robust_fastbc.robust_fastbc_schedule`)
  — `O(D + k log n log log n + log^2 n log log n)` rounds, i.e.
  throughput `Ω(1/(log n log log n))`.
* **RLNC dense wave** (open problem): :func:`dense_wave_schedule`.

The schedule is *static* (a function of round number, node identity and
private coins only), satisfying the paper's "node cannot change its
behavior based on whether it receives a message" requirement.

Runs on more than :data:`PER_NODE_MAX_N` nodes go through
:class:`RLNCGossipLayer`: the schedule's firing step from
:class:`~repro.algorithms.schedule.ScheduleLayer` over the nodes that
hold something, and every node's coded knowledge in one
:class:`~repro.coding.rlnc.RLNCBank`. Smaller runs drive one
:class:`RLNCGossipProtocol` per node over the per-node protocol of the
same schedule (:class:`~repro.algorithms.decay.DecayProtocol`,
:class:`~repro.algorithms.robust_fastbc.RobustFastBCProtocol`,
:class:`DenseWaveProtocol`, built with ``informed=True``), which is also
the reference the layer is tested against, draw for draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.algorithms.base import (
    MESSAGE,
    MessageProtocol,
    as_adversary,
    budget_terms,
)
from repro.algorithms.decay import DecayProtocol, decay_schedule
from repro.algorithms.fastbc import FastBCProtocol
from repro.algorithms.robust_fastbc import (
    DEFAULT_ROUND_MULTIPLIER,
    RobustFastBCProtocol,
    block_size,
    check_block_wave,
    robust_fastbc_schedule,
)
from repro.algorithms.schedule import Schedule, ScheduleLayer, wave_schedule
from repro.coding.rlnc import (
    CodedPacket,
    RLNCBank,
    RLNCEncoder,
    random_coefficients,
)
from repro.core.engine import NodeLayer, RoundResult, Simulator
from repro.core.faults import FaultConfig
from repro.core.network import RadioNetwork
from repro.core.packets import Packet
from repro.core.protocol import NodeProtocol
from repro.core.trace import ChannelCounters
from repro.gbst.gbst import build_gbst
from repro.gbst.ranked_bfs import RankedBFSTree
from repro.timeline.recorder import NULL_TIMELINE, TimelineRecorder
from repro.util.rng import RandomSource, spawn_rng
from repro.util.validation import check_positive

__all__ = [
    "DenseWaveProtocol",
    "MultiMessageOutcome",
    "RLNCGossipLayer",
    "RLNCGossipProtocol",
    "dense_wave_schedule",
    "rlnc_decay_broadcast",
    "rlnc_dense_wave_broadcast",
    "rlnc_robust_fastbc_broadcast",
]


@dataclass(frozen=True)
class MultiMessageOutcome:
    """Result of one k-message broadcast run."""

    success: bool
    rounds: int
    k: int
    completed_nodes: int
    total_nodes: int
    counters: ChannelCounters

    @property
    def rounds_per_message(self) -> float:
        return self.rounds / self.k


class RLNCGossipProtocol(NodeProtocol):
    """A node that gossips RLNC combinations on a single-message schedule.

    Runs small networks, and is the per-node reference for
    :class:`RLNCGossipLayer`.

    Parameters
    ----------
    pattern:
        A single-message protocol built with ``informed=True``; the node
        broadcasts, if it holds anything, in the rounds where
        ``pattern.act`` returns a packet. It never receives, so its
        schedule cannot depend on receptions.
    encoder:
        This node's RLNC state (pre-loaded with the k messages at the
        source).

    The combination coefficients are drawn from ``pattern.rng``, the
    node's one private stream, right after the coins of the same round.
    """

    def __init__(self, pattern: MessageProtocol, encoder: RLNCEncoder) -> None:
        self.pattern = pattern
        self.encoder = encoder
        self.rng = pattern.rng
        self.active = encoder.can_transmit()
        # flight recorder for rank progress; _run_gossip swaps in the
        # channel's recorder when a timeline capture is armed
        self.timeline = NULL_TIMELINE

    def act(self, round_index: int) -> Optional[CodedPacket]:
        if not self.encoder.can_transmit():
            return None
        if self.pattern.act(round_index) is None:
            return None
        return self.encoder.emit(self.rng)

    def on_receive(self, round_index: int, packet, sender: int) -> None:
        innovative = self.encoder.receive(packet)
        self.active = True
        if innovative and self.timeline.enabled:
            self.timeline.note_innovative()

    def is_done(self) -> bool:
        return self.encoder.is_complete()


class RLNCGossipLayer:
    """Every node's RLNC gossip as one protocol layer over an :class:`RLNCBank`.

    ``pattern`` is a :class:`~repro.algorithms.schedule.ScheduleLayer`
    whose informed nodes are the nodes with rank > 0 (the nodes whose
    :class:`RLNCGossipProtocol` is active). Each round its firing step
    picks the emitters, drawing their coins; each emitter then draws its
    weights from the same stream, as the protocol does right after the
    round's coins. One bank emit builds every coded row, one per emitter
    in ascending order, so each reception's row is found by looking its
    sender up among the emitters. One bank receive absorbs them all.
    Outcomes, counters, timelines, final bases and final streams equal
    those of a simulator over :class:`RLNCGossipProtocol` nodes built
    with the same streams.
    """

    def __init__(self, pattern: ScheduleLayer, bank: RLNCBank) -> None:
        self.pattern = pattern
        self.bank = bank
        # _run_gossip swaps in the channel's recorder when a timeline
        # capture is armed
        self.timeline = NULL_TIMELINE
        # the last round's emitters (ascending) and their coded rows
        self._emitters = None
        self._rows = None

    def act(self, round_index: int) -> np.ndarray:
        emitters = self.pattern.fire(round_index)
        self._emitters = emitters
        if not len(emitters):
            return emitters
        bank = self.bank
        rngs = self.pattern.rngs
        ranks = bank.rank[emitters]
        weights = np.zeros((len(emitters), int(ranks.max())), dtype=np.uint8)
        weights[np.arange(weights.shape[1]) < ranks[:, None]] = np.concatenate(
            [
                random_coefficients(rank, rngs[v])
                for v, rank in zip(emitters.tolist(), ranks.tolist())
            ]
        )
        self._rows = bank.emit(emitters, weights)
        return emitters

    def deliver(self, result: RoundResult) -> None:
        receivers = result.receivers
        if not len(receivers):
            return
        rows = self._rows[np.searchsorted(self._emitters, result.senders)]
        innovative = self.bank.receive(receivers, rows)
        if innovative and self.timeline.enabled:
            self.timeline.note_innovative(innovative)
        pattern = self.pattern
        informed = pattern.informed
        for v in receivers[self.bank.rank[receivers] > 0].tolist():
            if not informed[v]:
                pattern.inform(v)

    def all_done(self) -> bool:
        return bool((self.bank.rank == self.bank.k).all())

    def done_count(self) -> int:
        return int(np.count_nonzero(self.bank.rank == self.bank.k))

    def active_nodes(self) -> list[int]:
        return np.flatnonzero(self.bank.rank).tolist()


class DenseWaveProtocol(FastBCProtocol):
    """Exploratory schedule for the paper's open problem (Section 4.2).

    The paper leaves open whether a fault-robust algorithm can broadcast k
    messages in ``O(D + k log n + polylog n)`` rounds. This schedule drops
    Robust FASTBC's superround gating entirely: every fast-set node fires
    on *every* even round with ``t ≡ level (mod 3)``, so coded generations
    pipeline down each stretch at full rate instead of one batch per
    superround cycle; odd rounds keep FASTBC's Decay step for slow edges.
    The mod-3 gate still prevents adjacent-level collisions, but unlike
    the GBST wave there is no rank/level separation between *distinct*
    fast nodes of one level, so on general graphs same-level interference
    can occur — experiment X1 measures where the candidate stands.
    """

    def act(self, round_index: int) -> Optional[Packet]:
        if not self.informed:
            return None
        if round_index % 2 == 1:
            if not self.decay_interleave:
                return None
            i = ((round_index - 1) // 2) % self.phase_length
            if self.rng.bernoulli(2.0 ** (-i)):
                return MESSAGE
            return None
        if not self.is_fast:
            return None
        if self.level % 3 != (round_index // 2) % 3:
            return None
        return MESSAGE


def dense_wave_schedule(tree: RankedBFSTree) -> Schedule:
    """:class:`DenseWaveProtocol`'s schedule: even round 2t fires the fast
    nodes with ``level ≡ t (mod 3)``."""
    buckets: list[list[int]] = [[], [], []]
    for v in tree.fast_nodes():
        buckets[tree.level[v] % 3].append(v)
    return wave_schedule(tree.network.n, True, lambda t: buckets[t % 3])


#: networks up to this size gossip through per-node
#: :class:`RLNCGossipProtocol` objects. The branch exists for one caller:
#: perfbench's traced test asserts ``RLNCEncoder.emit`` calls on a
#: 16-node ``rlnc_decay`` run, and its tracer does not wrap the bank yet.
#: Delete it once the tracer does; no benchmark workload gossips on so
#: few nodes (timings at these sizes: PERFORMANCE.md, "Batched gossip").
PER_NODE_MAX_N = 16


def _run_gossip(
    network: RadioNetwork,
    schedule: Schedule,
    make_pattern: Callable[[int, RandomSource], MessageProtocol],
    k: int,
    payload_length: int,
    messages: Optional[list[bytes]],
    faults: FaultConfig,
    rng: RandomSource,
    max_rounds: int,
    adversary=None,
    channel=None,
) -> MultiMessageOutcome:
    """Gossip with every node on ``schedule``.

    Above :data:`PER_NODE_MAX_N` nodes the bank layer runs the schedule
    itself; smaller networks run node ``v`` on its per-node protocol,
    ``make_pattern(v, its RandomSource)``. Stream order: the payload
    messages from ``rng``, then one child stream per node in node order,
    then the channel's child.
    """
    if messages is None:
        if payload_length:
            messages = [
                bytes(rng.bytes_array(payload_length).tobytes())
                for _ in range(k)
            ]
        else:
            # rank-only mode: messages are empty, the coefficient vectors
            # carry all the information the experiment measures
            messages = [b""] * k
    if network.n <= PER_NODE_MAX_N:
        layer = NodeLayer(
            RLNCGossipProtocol(
                make_pattern(v, rng.spawn()),
                RLNCEncoder(
                    k,
                    payload_length,
                    messages=messages if v == network.source else None,
                ),
            )
            for v in network.nodes()
        )
        rank_holders = layer.protocols
    else:
        bank = RLNCBank(network.n, k, payload_length)
        bank.load(network.source, messages)
        layer = RLNCGossipLayer(
            ScheduleLayer(schedule, rng.spawn_many(network.n), network.source),
            bank,
        )
        rank_holders = [layer]
    sim = Simulator(
        network, layer, faults, rng.spawn(), adversary=adversary, channel=channel
    )
    for observer in sim.channel.observers:
        if isinstance(observer, TimelineRecorder):
            # rank progress rides the same recorder the channel feeds; the
            # open bucket absorbs innovative receptions of the round just
            # resolved (deliveries dispatch after the channel epilogue)
            for holder in rank_holders:
                holder.timeline = observer
    executed = sim.run(max_rounds)
    return MultiMessageOutcome(
        success=sim.all_done(),
        rounds=executed,
        k=k,
        completed_nodes=sim.done_count(),
        total_nodes=network.n,
        counters=sim.counters,
    )


def rlnc_decay_broadcast(
    network: RadioNetwork,
    k: int,
    faults: FaultConfig = FaultConfig.faultless(),
    rng: "int | RandomSource | None" = None,
    payload_length: int = 0,
    messages: Optional[list[bytes]] = None,
    max_rounds: Optional[int] = None,
    adversary=None,
    channel=None,
) -> MultiMessageOutcome:
    """Broadcast k messages with RLNC over the Decay pattern (Lemma 12)."""
    check_positive(k, "k")
    adversary = as_adversary(adversary)
    source = spawn_rng(rng)
    n = network.n
    if max_rounds is None:
        log_n, depth, slowdown = budget_terms(network, faults, adversary, channel)
        max_rounds = int(
            40 * slowdown * (depth * log_n + k * log_n + log_n * log_n)
        ) + 200
    return _run_gossip(
        network,
        decay_schedule(n),
        lambda v, node_rng: DecayProtocol(n, node_rng, informed=True),
        k, payload_length, messages, faults, source,
        max_rounds, adversary=adversary, channel=channel,
    )


def rlnc_robust_fastbc_broadcast(
    network: RadioNetwork,
    k: int,
    faults: FaultConfig = FaultConfig.faultless(),
    rng: "int | RandomSource | None" = None,
    payload_length: int = 0,
    messages: Optional[list[bytes]] = None,
    max_rounds: Optional[int] = None,
    block: Optional[int] = None,
    round_multiplier: int = DEFAULT_ROUND_MULTIPLIER,
    adversary=None,
    channel=None,
) -> MultiMessageOutcome:
    """Broadcast k messages with RLNC over Robust FASTBC (Lemma 13)."""
    check_positive(k, "k")
    check_block_wave(network.n, block, round_multiplier)
    adversary = as_adversary(adversary)
    source = spawn_rng(rng)
    tree = build_gbst(network).tree
    if max_rounds is None:
        log_n, depth, slowdown = budget_terms(network, faults, adversary, channel)
        log_log_n = block_size(network.n)
        max_rounds = int(
            slowdown
            * (
                40 * depth
                + 40 * k * log_n * log_log_n
                + 60 * round_multiplier * log_n * log_n * log_log_n
            )
        ) + 200
    return _run_gossip(
        network,
        robust_fastbc_schedule(tree, block, round_multiplier),
        lambda v, node_rng: RobustFastBCProtocol(
            v, tree, node_rng, informed=True,
            block=block, round_multiplier=round_multiplier,
        ),
        k, payload_length, messages, faults, source,
        max_rounds, adversary=adversary, channel=channel,
    )


def rlnc_dense_wave_broadcast(
    network: RadioNetwork,
    k: int,
    faults: FaultConfig = FaultConfig.faultless(),
    rng: "int | RandomSource | None" = None,
    payload_length: int = 0,
    messages: Optional[list[bytes]] = None,
    max_rounds: Optional[int] = None,
    adversary=None,
    channel=None,
) -> MultiMessageOutcome:
    """Exploratory: RLNC over the dense-wave pattern (open problem).

    Targets the paper's open ``O(D + k log n + polylog n)`` question; see
    :class:`DenseWaveProtocol` for the construction and its caveats, and
    experiment X1 for measurements.
    """
    check_positive(k, "k")
    adversary = as_adversary(adversary)
    source = spawn_rng(rng)
    tree = build_gbst(network).tree
    if max_rounds is None:
        log_n, depth, slowdown = budget_terms(network, faults, adversary, channel)
        max_rounds = int(
            40 * slowdown * (depth + k * log_n + log_n * log_n)
        ) + 400
    return _run_gossip(
        network,
        dense_wave_schedule(tree),
        lambda v, node_rng: DenseWaveProtocol(v, tree, node_rng, informed=True),
        k, payload_length, messages, faults, source,
        max_rounds, adversary=adversary, channel=channel,
    )
