"""Star-topology schedules: the Theorem 17 coding-gap experiment.

On a star (source adjacent to n leaves) with receiver faults:

* **Adaptive routing** (Lemma 15) is forced to push each message until
  every leaf has received it. The last-straggler effect costs Θ(log n)
  broadcasts per message even with full adaptivity: `Θ(k log n)` rounds.
* **Reed-Solomon coding** (Lemma 16) makes every successful reception
  count: the source streams distinct coded packets and each leaf only
  needs *any* k of them: `Θ(k)` rounds.

The ratio is the `Θ(log n)` receiver-fault coding gap. Both schedules run
on the real channel (:class:`~repro.core.engine.Channel`) with the source
as the only broadcaster — on a star, broadcasting from leaves never helps
(argued in Lemma 15's proof), so this is WLOG.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.algorithms.base import ilog2
from repro.coding.reed_solomon import ReedSolomonCode
from repro.core.engine import Channel, node_array
from repro.core.faults import FaultConfig, FaultModel
from repro.topologies.basic import star
from repro.util.rng import RandomSource, spawn_rng
from repro.util.validation import check_positive, check_probability

__all__ = ["StarOutcome", "star_adaptive_routing", "star_rs_coding"]


@dataclass(frozen=True)
class StarOutcome:
    """Result of a star schedule run."""

    success: bool
    rounds: int
    k: int
    n_leaves: int
    #: per-leaf reception counts (diagnostic for the lower-bound argument)
    min_receptions: int
    max_receptions: int

    @property
    def rounds_per_message(self) -> float:
        return self.rounds / self.k


def star_adaptive_routing(
    n_leaves: int,
    k: int,
    p: float,
    rng: "int | RandomSource | None" = None,
    fault_model: FaultModel = FaultModel.RECEIVER,
    max_rounds: Optional[int] = None,
) -> StarOutcome:
    """Lemma 15's schedule: broadcast m_1 until all leaves have it, then
    m_2, and so on. Fully adaptive: the source sees exactly who received.
    """
    check_positive(n_leaves, "n_leaves")
    check_positive(k, "k")
    check_probability(p, "p")
    source = spawn_rng(rng)
    network = star(n_leaves)
    faults = FaultConfig(fault_model, p)
    channel = Channel(network, faults, source.spawn())
    hub = network.source
    leaves = [v for v in network.nodes() if v != hub]
    if max_rounds is None:
        max_rounds = int(60 * k * (ilog2(n_leaves) + 1) / (1.0 - p)) + 200

    hub_only = node_array([hub])
    receptions = {v: 0 for v in leaves}
    rounds = 0
    for _ in range(k):
        missing = set(leaves)
        while missing and rounds < max_rounds:
            result = channel.transmit(hub_only)
            rounds += 1
            for v in result.receivers.tolist():
                receptions[v] += 1
                missing.discard(v)
        if missing:
            return StarOutcome(
                success=False,
                rounds=rounds,
                k=k,
                n_leaves=n_leaves,
                min_receptions=min(receptions.values()),
                max_receptions=max(receptions.values()),
            )
    return StarOutcome(
        success=True,
        rounds=rounds,
        k=k,
        n_leaves=n_leaves,
        min_receptions=min(receptions.values()),
        max_receptions=max(receptions.values()),
    )


def star_rs_coding(
    n_leaves: int,
    k: int,
    p: float,
    rng: "int | RandomSource | None" = None,
    fault_model: FaultModel = FaultModel.RECEIVER,
    max_rounds: Optional[int] = None,
    validate_decode: bool = False,
) -> StarOutcome:
    """Lemma 16's schedule: stream distinct Reed-Solomon coded packets
    until every leaf holds k of them (any k suffice to decode — the MDS
    property).

    With ``validate_decode`` (used in tests; requires the run to finish
    within 256 coded packets, one GF(2^8) Reed-Solomon block, so the
    default budget is capped there) the function actually encodes k
    random messages, collects each leaf's packets, decodes, and verifies
    the round-trip; otherwise reception counting stands in for decoding,
    justified by the separately-tested MDS property.
    """
    check_positive(n_leaves, "n_leaves")
    check_positive(k, "k")
    check_probability(p, "p")
    source = spawn_rng(rng)
    network = star(n_leaves)
    faults = FaultConfig(fault_model, p)
    channel = Channel(network, faults, source.spawn())
    hub = network.source
    leaves = [v for v in network.nodes() if v != hub]
    if max_rounds is None:
        max_rounds = int(20 * (k + ilog2(n_leaves) + 1) / (1.0 - p)) + 100
        if validate_decode:
            max_rounds = min(max_rounds, 256)

    code = None
    coded_payloads: list[bytes] = []
    original: list[bytes] = []
    received_packets: dict[int, list[tuple[int, bytes]]] = {v: [] for v in leaves}
    if validate_decode:
        if k > 256 or max_rounds > 256:
            raise ValueError(
                "validate_decode requires k and max_rounds <= 256 "
                "(one GF(2^8) Reed-Solomon block)"
            )
        code = ReedSolomonCode(k=k, m=256)
        original = [
            bytes(source.bytes_array(16).tobytes()) for _ in range(k)
        ]
        coded_payloads = code.encode(original)

    hub_only = node_array([hub])
    receptions = {v: 0 for v in leaves}
    rounds = 0
    while min(receptions.values()) < k and rounds < max_rounds:
        # round r sends coded packet r
        result = channel.transmit(hub_only)
        for v in result.receivers.tolist():
            receptions[v] += 1
            if validate_decode:
                received_packets[v].append((rounds, coded_payloads[rounds]))
        rounds += 1

    success = min(receptions.values()) >= k
    if success and validate_decode:
        assert code is not None
        for v in leaves:
            decoded = code.decode(received_packets[v])
            if decoded != original:
                raise AssertionError(
                    f"leaf {v} decoded the wrong messages — MDS violation"
                )
    return StarOutcome(
        success=success,
        rounds=rounds,
        k=k,
        n_leaves=n_leaves,
        min_receptions=min(receptions.values()),
        max_receptions=max(receptions.values()),
    )
