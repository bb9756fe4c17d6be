"""Per-node references: each broadcast algorithm as one object per node.

The paper states Decay (Section 3.4.1), FASTBC (3.4.2), Robust FASTBC
(4.1) and RLNC gossip (Lemmas 12-13) as rules that each node runs on its
own. The program runs them as schedules on array layers
(:class:`~repro.algorithms.schedule.ScheduleLayer` and the RLNC layers
over it). The classes here state the same rules node by node, and the
equivalence tests run both from the same streams and compare outcomes,
counters, timelines and final stream states.

A :class:`NodeProtocol` is the local algorithm running at one node. A
:class:`NodeLayer` drives one per node with a strict round contract:

1. at the start of round ``r`` it calls :meth:`NodeProtocol.act` on
   every *active* protocol; a return of ``None`` means listen, a packet
   means broadcast;
2. after the channel resolves collisions and faults it calls
   :meth:`NodeProtocol.on_receive` on each node that received a
   legitimate packet (noise and silence deliver nothing: the model
   guarantees nodes can't confuse noise with packets).

``active`` is a performance contract, not a semantic one: a protocol
that reports ``active == False`` promises it would return ``None`` from
``act`` until some reception wakes it, letting the layer skip it.
Listening is unaffected: inactive nodes still receive.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from repro.algorithms.base import ilog2
from repro.algorithms.robust_fastbc import DEFAULT_ROUND_MULTIPLIER, block_size
from repro.coding.rlnc import CodedPacket, RLNCEncoder
from repro.core.engine import RoundResult, node_array
from repro.core.errors import ReproError
from repro.core.network import RadioNetwork
from repro.gbst.gbst import build_gbst
from repro.gbst.ranked_bfs import RankedBFSTree
from repro.util.rng import RandomSource

__all__ = [
    "MESSAGE",
    "DecayProtocol",
    "DenseWaveProtocol",
    "FastBCProtocol",
    "MessagePacket",
    "MessageProtocol",
    "NodeLayer",
    "NodeProtocol",
    "Packet",
    "ProtocolError",
    "RLNCGossipProtocol",
    "RepeatedFastBCProtocol",
    "RobustFastBCProtocol",
    "make_fastbc_protocols",
    "make_robust_fastbc_protocols",
]


@dataclass(frozen=True)
class MessagePacket:
    """A routing packet: one of the k broadcast messages (Section 3.1).

    ``index`` identifies the message in {0, ..., k-1}; ``payload``
    carries the message content (empty by default).
    """

    index: int
    payload: bytes = b""

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"message index must be >= 0, got {self.index}")


#: a packet on the air: a routing packet or an RLNC combination
Packet = Union[MessagePacket, CodedPacket]

#: the one message a single-message protocol broadcasts
MESSAGE = MessagePacket(0)


class ProtocolError(ReproError):
    """A node protocol violated the model contract (e.g. broadcast while
    claiming to be idle, or emitted a packet of the wrong type)."""


class NodeProtocol(abc.ABC):
    """Local algorithm at a single node (see the module docstring)."""

    #: Performance hint: the layer may skip act() while False.
    active: bool = True

    @abc.abstractmethod
    def act(self, round_index: int) -> Optional[Packet]:
        """Decide this round's action: a packet to broadcast, or None."""

    @abc.abstractmethod
    def on_receive(self, round_index: int, packet: Packet, sender: int) -> None:
        """Handle a legitimate packet received from neighbor ``sender``."""

    def is_done(self) -> bool:
        """True once this node has completed its task. Default: False."""
        return False


class NodeLayer:
    """A protocol layer of one :class:`NodeProtocol` object per node.

    :meth:`act` keeps the round's ``{node: packet}``; :meth:`deliver`
    hands each receiver the packet of the sender it heard.
    """

    def __init__(self, protocols: Sequence[NodeProtocol]) -> None:
        self.protocols = list(protocols)
        self._packets: dict[int, Packet] = {}

    def act(self, round_index: int) -> np.ndarray:
        packets: dict[int, Packet] = {}
        for node, protocol in enumerate(self.protocols):
            if not protocol.active:
                continue
            packet = protocol.act(round_index)
            if packet is not None:
                packets[node] = packet
        self._packets = packets
        return node_array(list(packets))

    def deliver(self, result: RoundResult) -> None:
        packets = self._packets
        protocols = self.protocols
        r = result.round_index
        for v, s in zip(result.receivers.tolist(), result.senders.tolist()):
            protocols[v].on_receive(r, packets[s], s)

    def all_done(self) -> bool:
        return all(p.is_done() for p in self.protocols)

    def done_count(self) -> int:
        return sum(1 for p in self.protocols if p.is_done())

    def active_nodes(self) -> list[int]:
        return [node for node, p in enumerate(self.protocols) if p.active]


class MessageProtocol(NodeProtocol):
    """A node of a single-message broadcast: done once it holds the message.

    Subclasses write only :meth:`act`, which listens (returns ``None``)
    until ``informed``. The first legitimate reception informs the node
    and wakes it.

    Parameters
    ----------
    rng:
        This node's private randomness.
    informed:
        True for the source.
    """

    def __init__(self, rng: RandomSource, informed: bool) -> None:
        self.rng = rng
        self.informed = informed
        self.active = informed

    def on_receive(self, round_index: int, packet: Packet, sender: int) -> None:
        if not isinstance(packet, MessagePacket):
            raise ProtocolError(
                f"single-message protocol received {type(packet).__name__}; "
                "the model's routing packets are MessagePacket"
            )
        if not self.informed:
            self.informed = True
            self.active = True

    def is_done(self) -> bool:
        return self.informed


class DecayProtocol(MessageProtocol):
    """Per-node Decay: informed nodes broadcast w.p. ``2^-(t mod phase)``.

    Parameters
    ----------
    n:
        Network size (the only global knowledge Decay needs).
    rng:
        This node's private randomness.
    informed:
        True for the source.
    """

    def __init__(self, n: int, rng: RandomSource, informed: bool = False) -> None:
        super().__init__(rng, informed)
        self.phase_length = ilog2(n) + 1

    def act(self, round_index: int) -> Optional[Packet]:
        if not self.informed:
            return None
        i = round_index % self.phase_length
        if self.rng.bernoulli(2.0 ** (-i)):
            return MESSAGE
        return None


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


class RepeatedFastBCProtocol(FastBCProtocol):
    """FASTBC with every round repeated ``repeat`` times (Section 4.1's
    repetition baseline): real round ``t`` runs FASTBC round ``t // repeat``."""

    def __init__(
        self,
        node: int,
        tree: RankedBFSTree,
        rng: RandomSource,
        repeat: int,
        informed: bool = False,
    ) -> None:
        if repeat < 1:
            raise ValueError(f"repeat must be >= 1, got {repeat}")
        super().__init__(node, tree, rng, informed=informed)
        self.repeat = repeat

    def act(self, round_index: int) -> Optional[Packet]:
        return super().act(round_index // self.repeat)


class RobustFastBCProtocol(FastBCProtocol):
    """Per-node Robust FASTBC over a shared GBST (Theorem 11).

    Inherits FASTBC's GBST fields, Decay phase length and schedule period
    (the Lemma 7 bound ``ceil(log2 n)``, matching the paper's
    ``Θ(log n)`` treatment of the inter-wave wait); its ``act`` differs
    from FASTBC's only in the even-round block wave.

    Parameters
    ----------
    node, tree, rng, informed, decay_interleave:
        As in :class:`FastBCProtocol`.
    block:
        Block size S; defaults to
        :func:`~repro.algorithms.robust_fastbc.block_size` of n.
    round_multiplier:
        The constant c: a block broadcasts for c·S consecutive even rounds.
    """

    def __init__(
        self,
        node: int,
        tree: RankedBFSTree,
        rng: RandomSource,
        informed: bool = False,
        block: Optional[int] = None,
        round_multiplier: int = DEFAULT_ROUND_MULTIPLIER,
        decay_interleave: bool = True,
    ) -> None:
        if round_multiplier < 1:
            raise ValueError(
                f"round_multiplier must be >= 1, got {round_multiplier}"
            )
        super().__init__(
            node, tree, rng, informed=informed, decay_interleave=decay_interleave
        )
        self.block = block if block is not None else block_size(tree.network.n)
        if self.block < 1:
            raise ValueError(f"block size must be >= 1, got {self.block}")
        self.round_multiplier = round_multiplier

    def act(self, round_index: int) -> Optional[Packet]:
        if not self.informed:
            return None
        if round_index % 2 == 1:
            # odd: standard Decay step on all informed nodes (optional for
            # wave-isolation experiments, as in FastBCProtocol)
            if not self.decay_interleave:
                return None
            i = ((round_index - 1) // 2) % self.phase_length
            if self.rng.bernoulli(2.0 ** (-i)):
                return MESSAGE
            return None
        # even: block wave on the fast set. t indexes even rounds; within
        # its superround, the node at level l fires on every t = l (mod 3),
        # so the wave crosses one hop per even round when transmissions
        # succeed and retries a hop every 3 even rounds after a fault.
        if not self.is_fast:
            return None
        t = round_index // 2
        s = self.block
        superround_length = self.round_multiplier * s
        modulus = 6 * self.max_rank
        target = (self.level // s - 6 * self.rank) % modulus
        current = (t // superround_length) % modulus
        if current != target:
            return None
        if self.level % 3 != t % 3:
            return None
        return MESSAGE


def make_robust_fastbc_protocols(
    network: RadioNetwork,
    rng: RandomSource,
    block: Optional[int] = None,
    round_multiplier: int = DEFAULT_ROUND_MULTIPLIER,
    decay_interleave: bool = True,
) -> list[RobustFastBCProtocol]:
    """Build one Robust FASTBC protocol per node over the network's GBST."""
    tree = build_gbst(network).tree
    return [
        RobustFastBCProtocol(
            v,
            tree,
            rng.spawn(),
            informed=(v == network.source),
            block=block,
            round_multiplier=round_multiplier,
            decay_interleave=decay_interleave,
        )
        for v in network.nodes()
    ]


class DenseWaveProtocol(FastBCProtocol):
    """Per-node dense wave (the paper's open problem, Section 4.2).

    Every fast-set node fires on *every* even round with
    ``t ≡ level (mod 3)``; odd rounds keep FASTBC's Decay step.
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


class RLNCGossipProtocol(NodeProtocol):
    """A node that gossips RLNC combinations on a single-message schedule.

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
        # flight recorder for rank progress, or None; the test's gossip
        # layer factory hands in the run's recorder when a capture is armed
        self.timeline = None

    def act(self, round_index: int) -> Optional[CodedPacket]:
        if not self.encoder.can_transmit():
            return None
        if self.pattern.act(round_index) is None:
            return None
        return self.encoder.emit(self.rng)

    def on_receive(self, round_index: int, packet, sender: int) -> None:
        innovative = self.encoder.receive(packet)
        self.active = True
        if innovative and self.timeline is not None:
            self.timeline.note_innovative()

    def is_done(self) -> bool:
        return self.encoder.is_complete()
