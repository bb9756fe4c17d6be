"""The one run driver of every algorithm on the :class:`Simulator`.

Decay, FASTBC, Robust FASTBC, repeated FASTBC and the three RLNC
algorithms (Lemmas 12-13 run a single-message schedule with a coded
packet where it sends the message) differ only in their schedule, their
per-node state and their round budget. So each ``<name>_broadcast``
entry point declares just those: a layer factory (a schedule over
:func:`~repro.algorithms.schedule.schedule_layer`, or RLNC's gossip
layer) and a budget function of :func:`budget_terms`. :func:`run_broadcast`
does the rest, in one place: it coerces the adversary, spawns the run's
streams, sizes a missing budget, builds the layer, attaches an armed
timeline capture's recorder, runs the simulator until every node is
done (or the budget runs out), adds the run's counters to the
``repro_channel_*`` and ``repro_mac_*`` metrics when telemetry is on,
and returns a :class:`BroadcastOutcome`.
The centralized schedules (the star's, layered routing's and those of
:mod:`repro.schedules`) are scripts that :func:`run_script` runs on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Generator, Optional

import numpy as np

from repro.adversary.base import Adversary, effective_loss_rate
from repro.adversary.registry import as_adversary
from repro.core.engine import ProtocolLayer, RoundResult, Simulator
from repro.core.faults import AdversaryConfig, FaultConfig
from repro.core.network import RadioNetwork
from repro.core.trace import ChannelCounters
from repro.telemetry.metrics import METRICS as _METRICS
from repro.timeline.capture import armed_recorder
from repro.timeline.recorder import TimelineRecorder
from repro.util.rng import RandomSource, spawn_rng

__all__ = [
    "Budget",
    "BroadcastOutcome",
    "LayerFactory",
    "Script",
    "ScriptLayer",
    "run_broadcast",
    "run_script",
    "budget_terms",
    "ilog2",
    "stretch",
]

#: ``make_layer(source, recorder)``: a run's protocol layer, whose nodes
#: draw their streams from the run's ``source``; ``recorder`` is the run's
#: flight recorder, or None when no timeline is captured
LayerFactory = Callable[[RandomSource, Optional[TimelineRecorder]], ProtocolLayer]
#: ``budget(log_n, depth, slowdown)``: a default round budget from the
#: terms of :func:`budget_terms`
Budget = Callable[[int, int, float], int]
#: a schedule as a script: it yields each round's broadcasters and is sent
#: that round's :class:`RoundResult`
Script = Generator[np.ndarray, RoundResult, None]

#: each field of a run's counters (:class:`ChannelCounters`, and on the
#: contention MAC :class:`~repro.mac.channel.MacCounters`) and the
#: process-wide counter that a finished run adds it to
_RUN_METRICS = {
    field: _METRICS.counter(name, help)
    for field, name, help in (
        ("rounds", "repro_channel_rounds_total", "channel rounds resolved"),
        ("broadcasts", "repro_channel_broadcasts_total",
         "broadcasts that reached the air (on the contention MAC, "
         "transmissions; its offers are repro_mac_offers_total)"),
        ("deliveries", "repro_channel_deliveries_total",
         "successful unique-neighbor deliveries"),
        ("collisions", "repro_channel_collisions_total",
         "listeners silenced by collisions"),
        ("sender_faults", "repro_channel_sender_faults_total",
         "broadcaster-rounds that sent noise"),
        ("receiver_faults", "repro_channel_receiver_faults_total",
         "unique receptions replaced by noise at the receiver"),
        ("mac_offers", "repro_mac_offers_total", "packets offered to the MAC gate"),
        ("mac_defers", "repro_mac_defers_total",
         "contender-slots frozen by carrier sense"),
        ("mac_transmissions", "repro_mac_transmissions_total",
         "offers that reached the air"),
        ("mac_tx_collisions", "repro_mac_collisions_total",
         "transmissions that failed (no delivery) and escalated backoff"),
        ("mac_tx_success", "repro_mac_backoff_resets_total",
         "transmissions that succeeded and reset their contention window"),
        ("mac_captures", "repro_mac_captures_total",
         "collided receptions rescued by the capture effect"),
    )
}


def ilog2(n: int) -> int:
    """``ceil(log2 n)`` for n >= 1 (0 for n == 1) — the paper's log."""
    if n < 1:
        raise ValueError(f"ilog2 requires n >= 1, got {n}")
    return max(0, math.ceil(math.log2(n)))


@dataclass(frozen=True)
class BroadcastOutcome:
    """Result of one run of the driver.

    ``rounds`` is the number of rounds until the last node became informed
    (== ``budget`` when the run timed out and ``success`` is False);
    ``informed`` counts the nodes that are done. The RLNC entry points
    report it as a
    :class:`~repro.algorithms.multi.rlnc_broadcast.MultiMessageOutcome`.
    """

    success: bool
    rounds: int
    informed: int
    total: int
    counters: ChannelCounters

    @property
    def informed_fraction(self) -> float:
        return self.informed / self.total


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
    return log_n, depth, stretch(1.0, faults, adversary, channel)


def stretch(
    rounds: float, faults: FaultConfig, adversary: "Adversary | None", channel
) -> float:
    """``rounds / (1 - p)`` times the MAC's slowdown (:func:`budget_terms`),
    exact where ``rounds * slowdown`` can round one lower."""
    rounds /= 1.0 - effective_loss_rate(faults, adversary)
    if channel is not None:
        rounds *= channel.planning_slowdown()
    return rounds


def run_broadcast(
    network: RadioNetwork,
    make_layer: LayerFactory,
    faults: FaultConfig,
    rng: "int | RandomSource | None",
    max_rounds: Optional[int],
    budget: Budget,
    adversary: "Adversary | AdversaryConfig | None" = None,
    channel=None,
) -> BroadcastOutcome:
    """Run one broadcast until every node is done or the budget expires.

    ``max_rounds`` defaults to ``budget(*budget_terms(...))``. Stream
    order: ``make_layer`` draws the nodes' streams (RLNC first draws its
    payload messages) from the run's source, then the channel takes the
    source's next child. When a timeline capture is armed
    (:func:`~repro.timeline.capture.capture_timeline`), its recorder goes
    to the layer and to the channel as a round observer, and starts with
    the layer's active nodes informed. With telemetry on, a finished
    run adds its counters to the metrics of :data:`_RUN_METRICS`; a run
    that raises adds none.
    """
    adversary = as_adversary(adversary)
    source = spawn_rng(rng)
    if max_rounds is None:
        max_rounds = budget(*budget_terms(network, faults, adversary, channel))
    recorder = armed_recorder(network.n)
    layer = make_layer(source, recorder)
    observers = ()
    if recorder is not None:
        for node in layer.active_nodes():
            recorder.mark_informed(node)
        observers = (recorder,)
    sim = Simulator(
        network, layer, faults, source.spawn(), observers,
        adversary=adversary, channel=channel,
    )
    executed = sim.run(max_rounds)
    if _METRICS.enabled:
        for field, value in sim.counters.as_dict().items():
            _RUN_METRICS[field].inc(value)
    return BroadcastOutcome(
        success=sim.all_done(),
        rounds=executed,
        informed=sim.done_count(),
        total=network.n,
        counters=sim.counters,
    )


class ScriptLayer:
    """A :class:`~repro.core.engine.ProtocolLayer` over a :data:`Script`.

    A centralized schedule writes ``result = yield broadcasters`` where a
    loop of its own would call ``channel.transmit(broadcasters)``, so its
    nested loops and early exits read as before. The layer runs the
    script to its first round when it is built, :meth:`deliver` sends
    each round's result in, and the run is done once the script returns:
    then every node counts as done, none before. The source starts
    informed.
    """

    def __init__(self, script: Script, network: RadioNetwork) -> None:
        self._script = script
        self._network = network
        self._finished = False
        self.deliver(None)

    def act(self, round_index: int) -> np.ndarray:
        return self._pending

    def deliver(self, result: Optional[RoundResult]) -> None:
        try:
            self._pending = self._script.send(result)
        except StopIteration:
            self._finished = True

    def all_done(self) -> bool:
        return self._finished

    def done_count(self) -> int:
        return self._network.n if self._finished else 0

    def active_nodes(self) -> list[int]:
        return [self._network.source]


def run_script(
    network: RadioNetwork,
    script: Callable[[RandomSource], Script],
    faults: FaultConfig,
    rng: "int | RandomSource | None",
    max_rounds: int,
    adversary: "Adversary | AdversaryConfig | None" = None,
    channel=None,
) -> BroadcastOutcome:
    """Run ``script(source)`` on the driver for at most ``max_rounds`` rounds.

    The script draws its coins from the run's ``source``, and the channel
    takes the source's next child once the script has reached its first
    round. ``success`` is True iff the script returned in time.
    """
    return run_broadcast(
        network, lambda source, recorder: ScriptLayer(script(source), network),
        faults, rng, max_rounds, lambda *terms: max_rounds,
        adversary=adversary, channel=channel,
    )
