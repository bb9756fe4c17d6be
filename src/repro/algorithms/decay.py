"""The Decay broadcast algorithm of Bar-Yehuda, Goldreich and Itai [5].

Section 3.4.1: rounds are grouped into phases of ``ilog2(n) + 1`` rounds;
in the i-th round of a phase (i = 0, 1, ..., ilog2 n) every informed node
broadcasts independently with probability ``2^-i``. Lemma 5 shows a node
with an informed neighbor becomes informed with constant probability per
phase; Lemma 6 gives O(D log n + log n (log n + log 1/δ)) rounds faultless,
and Lemma 9 shows the *same algorithm, unchanged*, tolerates sender or
receiver faults with only a 1/(1-p) slowdown — Decay is fault-robust
because it never relies on any particular transmission succeeding.
"""

from __future__ import annotations

from typing import Optional

from repro.algorithms.base import BroadcastOutcome, run_broadcast
from repro.algorithms.schedule import (
    Schedule,
    decay_probabilities,
    schedule_layer,
)
from repro.core.faults import FaultConfig
from repro.core.network import RadioNetwork
from repro.util.rng import RandomSource

__all__ = ["decay_broadcast", "decay_schedule"]


def decay_schedule(n: int) -> Schedule:
    """Decay's schedule on ``n`` nodes (the only global knowledge it needs).

    Each node's rule: once informed, broadcast in round ``r`` with
    probability ``2^-(r mod phase)``, ``phase = ilog2(n) + 1``, on the
    node's own coin.
    """
    decay = decay_probabilities(n)
    phase = len(decay)
    return lambda round_index: decay[round_index % phase]


def decay_broadcast(
    network: RadioNetwork,
    faults: FaultConfig = FaultConfig.faultless(),
    rng: "int | RandomSource | None" = None,
    max_rounds: Optional[int] = None,
    adversary=None,
    channel=None,
) -> BroadcastOutcome:
    """Broadcast one message from the source with Decay.

    ``max_rounds`` defaults to a generous multiple of the Lemma 9 bound
    ``O(log n / (1-p) · (D + log n))`` so that a timeout signals a real
    anomaly rather than an unlucky run. ``adversary`` swaps the i.i.d.
    fault coins for a registered adversary model (budgets then plan for
    its nominal loss rate); ``channel`` swaps the always-deliver medium
    for a contention MAC (budgets stretch by its planning slowdown).
    """

    def budget(log_n: int, depth: int, slowdown: float) -> int:
        return int(40 * slowdown * log_n * (depth + log_n)) + 100

    return run_broadcast(
        network, schedule_layer(network, decay_schedule(network.n)),
        faults, rng, max_rounds, budget, adversary=adversary, channel=channel,
    )
