"""The faultless-to-faulty schedule transformations (Lemmas 25-26).

Both transformations blow each original round up into a *meta-round* and
each original message up into ``x`` sub-messages, keeping throughput within
a ``(1-p)(1±η)`` factor of the faultless schedule:

* **Routing / sender faults** (Lemma 25): in its meta-round a broadcaster
  retransmits each sub-message until the transmission is clean (senders can
  observe their own faults under adaptivity), then moves on, going silent
  once all ``x`` are through. Early silence can only remove collisions, so
  every reference receiver still hears its reference sender.
* **Coding / sender or receiver faults** (Lemma 26): a broadcaster
  Reed-Solomon-encodes its ``x`` per-sub-instance coded packets into
  ``ceil(x/((1-p)(1-η)))`` packets and streams them; a reference receiver
  decodes its meta-round if it catches any ``x`` of them.

Success is judged against the faultless :class:`ReferenceExecution`: every
delivery the original schedule made must be reproduced (all ``x``
sub-messages, resp. ``>= x`` coded packets) in the corresponding meta-round.
Both transformed schedules are scripts on the run driver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.algorithms.base import run_script
from repro.core.engine import node_array
from repro.core.faults import FaultConfig, FaultModel
from repro.schedules.schedule import (
    ReferenceExecution,
    StaticRoutingSchedule,
    execute_reference,
)
from repro.util.rng import RandomSource
from repro.util.validation import check_positive, check_probability

__all__ = [
    "TransformOutcome",
    "transform_routing_schedule",
    "transform_coding_schedule",
]


@dataclass(frozen=True)
class TransformOutcome:
    """Result of executing a transformed schedule under faults.

    ``throughput_ratio`` compares messages-per-round of the transformed
    run against the faultless original; Lemmas 25-26 predict it
    concentrates near ``(1-p)`` for large ``x``.
    """

    success: bool
    original_rounds: int
    transformed_rounds: int
    k_original: int
    x: int
    meta_round_length: int
    #: reference deliveries that were fully reproduced
    reproduced: int
    #: total reference deliveries
    expected: int

    @property
    def k_transformed(self) -> int:
        return self.k_original * self.x

    @property
    def throughput_original(self) -> float:
        return self.k_original / self.original_rounds

    @property
    def throughput_transformed(self) -> float:
        return self.k_transformed / self.transformed_rounds

    @property
    def throughput_ratio(self) -> float:
        """transformed / original throughput; ~ (1-p) per the lemmas."""
        return self.throughput_transformed / self.throughput_original


def _meta_round_length(x: int, p: float, eta: float) -> int:
    """Rounds per meta-round, after rejecting a bad ``x``, ``p`` or ``eta``."""
    check_positive(x, "x")
    check_probability(p, "p")
    if eta <= 0:
        raise ValueError(f"eta must be positive, got {eta}")
    return max(x, math.ceil(x * (1.0 + eta) / (1.0 - p)))


def _outcome(schedule, x, length, reference, reproduced, success):
    """The run's outcome: it succeeds if it reproduced every reference delivery."""
    expected = sum(map(len, reference.deliveries))
    return TransformOutcome(
        success=success and reproduced == expected,
        original_rounds=schedule.length,
        transformed_rounds=schedule.length * length,
        k_original=schedule.k,
        x=x,
        meta_round_length=length,
        reproduced=reproduced,
        expected=expected,
    )


def transform_routing_schedule(
    schedule: StaticRoutingSchedule,
    x: int,
    p: float,
    eta: float = 0.5,
    rng: "int | RandomSource | None" = None,
    reference: "ReferenceExecution | None" = None,
) -> TransformOutcome:
    """Execute the Lemma 25 transformation under sender faults.

    Parameters
    ----------
    schedule:
        A faultless static routing schedule.
    x:
        Sub-messages per original message (the lemma takes
        ``x = Ω(log(n k / τ) / η²)`` for failure probability 1/k'; the
        experiments sweep x and watch the success rate rise).
    p:
        Sender-fault probability.
    eta:
        Meta-round slack η.
    reference:
        Precomputed faultless execution (recomputed if omitted).
    """
    length = _meta_round_length(x, p, eta)
    if reference is None:
        reference = execute_reference(schedule)
    network = schedule.network
    # count, per meta-round, how many sub-message deliveries each
    # reference (receiver, sender) pair accumulated
    reproduced = 0
    known: dict[int, set[int]] = {v: set() for v in network.nodes()}
    known[network.source] = set(range(schedule.k))

    def script(source):
        nonlocal reproduced
        for actions, deliveries in zip(schedule.rounds, reference.deliveries):
            live_broadcasters = {
                node: m for node, m in actions.items() if m in known[node]
            }
            sent_count = {node: 0 for node in live_broadcasters}
            got_count = {(receiver, sender): 0 for receiver, sender, _ in deliveries}
            for _ in range(length):
                live = sorted(
                    node for node in live_broadcasters if sent_count[node] < x
                )
                if not live:
                    break
                result = yield node_array(live)
                faulty = set(result.faulty_senders.tolist())
                # adaptive senders advance on every clean transmission
                for node in live:
                    if node not in faulty:
                        sent_count[node] += 1
                for key in zip(result.receivers.tolist(), result.senders.tolist()):
                    if key in got_count:
                        got_count[key] += 1
            for receiver, sender, message in deliveries:
                if got_count[receiver, sender] >= x:
                    reproduced += 1
                    known[receiver].add(message)

    run_script(
        network, script, FaultConfig.sender(p), rng, schedule.length * length
    )
    success = all(known[v] >= reference.known[v] for v in network.nodes())
    return _outcome(schedule, x, length, reference, reproduced, success)


def transform_coding_schedule(
    schedule: StaticRoutingSchedule,
    x: int,
    p: float,
    fault_model: FaultModel = FaultModel.RECEIVER,
    eta: float = 0.5,
    rng: "int | RandomSource | None" = None,
    reference: "ReferenceExecution | None" = None,
) -> TransformOutcome:
    """Execute the Lemma 26 transformation under either fault model.

    Every original broadcaster streams ``ceil(x(1+η)/(1-p))`` distinct
    Reed-Solomon packets through its meta-round (static — no adaptivity
    needed); a reference receiver reproduces its delivery iff it catches at
    least ``x`` of them (the MDS property, tested in
    :mod:`repro.coding.reed_solomon`, then reconstructs all ``x``
    sub-instance packets).
    """
    length = _meta_round_length(x, p, eta)
    if fault_model is FaultModel.NONE:
        raise ValueError("transform_coding_schedule expects a faulty model")
    if reference is None:
        reference = execute_reference(schedule)
    network = schedule.network
    reproduced = 0
    # In the coding transformation a node's ability to broadcast in
    # meta-round r depends on having decoded its earlier receptions; track
    # which nodes fell behind and treat their later broadcasts as noise
    # (conservative: failures propagate as the lemma's analysis requires).
    decoded_ok: dict[int, bool] = {v: True for v in network.nodes()}

    def script(source):
        nonlocal reproduced
        for actions, deliveries in zip(schedule.rounds, reference.deliveries):
            got_count = {(receiver, sender): 0 for receiver, sender, _ in deliveries}
            live = node_array(sorted(node for node in actions if decoded_ok[node]))
            for _ in range(length):
                # broadcaster i streams coded packet j of its meta-round in
                # sub-round j; reception counts stand in for the packets
                result = yield live
                for key in zip(result.receivers.tolist(), result.senders.tolist()):
                    if key in got_count:
                        got_count[key] += 1
            for receiver, sender, _ in deliveries:
                if got_count[receiver, sender] >= x:
                    reproduced += 1
                else:
                    decoded_ok[receiver] = False

    run_script(
        network, script, FaultConfig(fault_model, p), rng,
        schedule.length * length,
    )
    return _outcome(schedule, x, length, reference, reproduced, True)
