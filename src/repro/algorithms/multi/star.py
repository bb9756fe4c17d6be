"""Star-topology schedules: the Theorem 17 coding-gap experiment.

On a star (source adjacent to n leaves) with receiver faults:

* **Adaptive routing** (Lemma 15) is forced to push each message until
  every leaf has received it. The last-straggler effect costs Θ(log n)
  broadcasts per message even with full adaptivity: `Θ(k log n)` rounds.
* **Reed-Solomon coding** (Lemma 16) makes every successful reception
  count: the source streams distinct coded packets and each leaf only
  needs *any* k of them: `Θ(k)` rounds.

The ratio is the `Θ(log n)` receiver-fault coding gap. Both schedules are
scripts on the run driver (:func:`~repro.algorithms.base.run_script`),
so they take an adversary, the contention MAC and a timeline, with the
source as the only broadcaster — on a star, broadcasting from leaves
never helps (argued in Lemma 15's proof), so this is WLOG.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.adversary.registry import as_adversary
from repro.algorithms.base import ilog2, run_script, stretch
from repro.coding.reed_solomon import ReedSolomonCode
from repro.core.engine import node_array
from repro.core.faults import FaultConfig, FaultModel
from repro.core.trace import ChannelCounters
from repro.topologies.basic import star
from repro.util.rng import RandomSource
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
    #: the run's channel counters
    counters: ChannelCounters

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
    adversary=None,
    channel=None,
) -> StarOutcome:
    """Lemma 15's schedule: broadcast m_1 until all leaves have it, then
    m_2, and so on. Fully adaptive: the source sees exactly who received.

    ``adversary`` and ``channel`` work as in
    :func:`~repro.algorithms.decay.decay_broadcast`; the default budget
    plans for their loss rate and slowdown.
    """
    check_positive(n_leaves, "n_leaves")
    check_positive(k, "k")
    check_probability(p, "p")
    network = star(n_leaves)
    faults = FaultConfig(fault_model, p)
    adversary = as_adversary(adversary)
    if max_rounds is None:
        rounds = 60 * k * (ilog2(n_leaves) + 1)
        max_rounds = int(stretch(rounds, faults, adversary, channel)) + 200

    hub_only = node_array([network.source])
    # per-leaf receptions; star() puts the hub at node 0
    receptions = dict.fromkeys(range(1, network.n), 0)

    def script(source):
        for _ in range(k):
            missing = set(receptions)
            while missing:
                result = yield hub_only
                for v in result.receivers.tolist():
                    receptions[v] += 1
                    missing.discard(v)

    outcome = run_script(network, script, faults, rng, max_rounds, adversary, channel)
    return _star_outcome(outcome, k, n_leaves, receptions)


def _star_outcome(outcome, k: int, n_leaves: int, receptions) -> StarOutcome:
    counts = receptions.values()
    return StarOutcome(
        outcome.success, outcome.rounds, k, n_leaves, min(counts), max(counts),
        outcome.counters,
    )


def star_rs_coding(
    n_leaves: int,
    k: int,
    p: float,
    rng: "int | RandomSource | None" = None,
    fault_model: FaultModel = FaultModel.RECEIVER,
    max_rounds: Optional[int] = None,
    validate_decode: bool = False,
    adversary=None,
    channel=None,
) -> StarOutcome:
    """Lemma 16's schedule: stream distinct Reed-Solomon coded packets
    until every leaf holds k of them (any k suffice to decode — the MDS
    property).

    With ``validate_decode`` (used in tests; requires the run to finish
    within 256 coded packets, one GF(2^8) Reed-Solomon block, so the
    default budget is capped there) the function actually encodes k
    random messages, collects each leaf's packets, decodes, and verifies
    the round-trip; otherwise reception counting stands in for decoding,
    justified by the separately-tested MDS property. ``adversary`` and
    ``channel`` work as in :func:`star_adaptive_routing`.
    """
    check_positive(n_leaves, "n_leaves")
    check_positive(k, "k")
    check_probability(p, "p")
    network = star(n_leaves)
    faults = FaultConfig(fault_model, p)
    adversary = as_adversary(adversary)
    if max_rounds is None:
        rounds = 20 * (k + ilog2(n_leaves) + 1)
        max_rounds = int(stretch(rounds, faults, adversary, channel)) + 100
        if validate_decode:
            max_rounds = min(max_rounds, 256)
    if validate_decode and (k > 256 or max_rounds > 256):
        raise ValueError(
            "validate_decode requires k and max_rounds <= 256 "
            "(one GF(2^8) Reed-Solomon block)"
        )

    hub_only = node_array([network.source])
    receptions = dict.fromkeys(range(1, network.n), 0)
    original: list[bytes] = []
    received_packets = {v: [] for v in receptions}
    code = ReedSolomonCode(k=k, m=256) if validate_decode else None

    def script(source):
        if code is not None:
            original.extend(
                bytes(source.bytes_array(16).tobytes()) for _ in range(k)
            )
            coded_payloads = code.encode(original)
        rounds = 0
        while min(receptions.values()) < k:
            # round r sends coded packet r
            result = yield hub_only
            for v in result.receivers.tolist():
                receptions[v] += 1
                if code is not None:
                    received_packets[v].append((rounds, coded_payloads[rounds]))
            rounds += 1

    outcome = run_script(network, script, faults, rng, max_rounds, adversary, channel)
    if outcome.success and code is not None:
        for v, packets in received_packets.items():
            if code.decode(packets) != original:
                raise AssertionError(
                    f"leaf {v} decoded the wrong messages — MDS violation"
                )
    return _star_outcome(outcome, k, n_leaves, receptions)
