"""Shared scaffolding for single-message broadcast algorithms.

Every single-message algorithm in this package is packaged the same way: a
:class:`MessageProtocol` subclass that writes only ``act`` (the per-node
reference), the same schedule for a
:class:`~repro.algorithms.schedule.ScheduleLayer`, and a
``<name>_broadcast`` convenience function that sizes a default round
budget from :func:`budget_terms`, builds the layer over every node, runs
the simulator until all nodes are informed (or the budget runs out), and
returns a :class:`BroadcastOutcome`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.adversary.base import Adversary, effective_loss_rate
from repro.adversary.registry import as_adversary
from repro.core.engine import ProtocolLayer, Simulator
from repro.core.errors import ProtocolError
from repro.core.faults import AdversaryConfig, FaultConfig
from repro.core.network import RadioNetwork
from repro.core.packets import MessagePacket, Packet
from repro.core.protocol import NodeProtocol
from repro.core.trace import ChannelCounters
from repro.util.rng import RandomSource

__all__ = [
    "MESSAGE",
    "BroadcastOutcome",
    "MessageProtocol",
    "run_broadcast",
    "as_adversary",
    "budget_terms",
    "ilog2",
]

#: the one message a single-message protocol broadcasts
MESSAGE = MessagePacket(0)


def ilog2(n: int) -> int:
    """``ceil(log2 n)`` for n >= 1 (0 for n == 1) — the paper's log."""
    if n < 1:
        raise ValueError(f"ilog2 requires n >= 1, got {n}")
    return max(0, math.ceil(math.log2(n)))


@dataclass(frozen=True)
class BroadcastOutcome:
    """Result of one single-message broadcast run.

    ``rounds`` is the number of rounds until the last node became informed
    (== ``budget`` when the run timed out and ``success`` is False).
    """

    success: bool
    rounds: int
    informed: int
    total: int
    counters: ChannelCounters

    @property
    def informed_fraction(self) -> float:
        return self.informed / self.total


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


def budget_terms(
    network: RadioNetwork,
    faults: FaultConfig,
    adversary: "Adversary | None",
    channel,
) -> tuple[int, int, float]:
    """``(log n + 1, D, slowdown)``: the terms of every default round budget.

    ``D`` is the source eccentricity (at least 1). ``slowdown`` is
    ``1/(1-p)`` for the nominal loss rate ``p`` of the fault model or
    adversary, times the channel's
    :meth:`~repro.mac.config.MacConfig.planning_slowdown` when it is a
    contention MAC: there a broadcast attempt spends ~``(cw_min+1)/2``
    slots in backoff plus the transmission slot before it can land, so
    budgets sized for the paper's always-deliver channel must stretch.
    """
    log_n = ilog2(network.n) + 1
    depth = max(1, network.source_eccentricity)
    slowdown = 1.0 / (1.0 - effective_loss_rate(faults, adversary))
    if channel is not None:
        slowdown *= channel.planning_slowdown()
    return log_n, depth, slowdown


def run_broadcast(
    network: RadioNetwork,
    protocols: "Sequence[NodeProtocol] | ProtocolLayer",
    faults: FaultConfig,
    rng: "int | RandomSource | None",
    max_rounds: int,
    adversary: "Adversary | AdversaryConfig | None" = None,
    channel=None,
) -> BroadcastOutcome:
    """Drive ``protocols`` until every node is done or the budget expires.

    ``protocols`` is one :class:`NodeProtocol` per node or a
    :class:`~repro.core.engine.ProtocolLayer` over all of them, as
    :class:`~repro.core.engine.Simulator` takes.
    """
    sim = Simulator(network, protocols, faults, rng, adversary=adversary, channel=channel)
    executed = sim.run(max_rounds)
    success = sim.all_done()
    return BroadcastOutcome(
        success=success,
        rounds=executed,
        informed=sim.done_count(),
        total=network.n,
        counters=sim.counters,
    )
