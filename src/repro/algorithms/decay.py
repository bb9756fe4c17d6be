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

from repro.algorithms.base import (
    MESSAGE,
    BroadcastOutcome,
    MessageProtocol,
    as_adversary,
    budget_terms,
    ilog2,
    run_broadcast,
)
from repro.algorithms.schedule import (
    Schedule,
    ScheduleLayer,
    decay_probabilities,
    node_streams,
)
from repro.core.faults import FaultConfig
from repro.core.network import RadioNetwork
from repro.core.packets import Packet
from repro.util.rng import RandomSource, spawn_rng

__all__ = ["DecayProtocol", "decay_broadcast", "decay_schedule"]


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


def decay_schedule(n: int) -> Schedule:
    """:class:`DecayProtocol`'s schedule: the coin ``2^-(r mod phase)``."""
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
    adversary = as_adversary(adversary)
    source = spawn_rng(rng)
    n = network.n
    if max_rounds is None:
        log_n, depth, slowdown = budget_terms(network, faults, adversary, channel)
        max_rounds = int(40 * slowdown * log_n * (depth + log_n)) + 100
    layer = ScheduleLayer(
        decay_schedule(n), node_streams(source, n), network.source
    )
    return run_broadcast(
        network,
        layer,
        faults,
        source.spawn(),
        max_rounds,
        adversary=adversary,
        channel=channel,
    )
