"""Saturation harness: drive a single collision domain at full load.

The Bianchi cross-check needs the exact regime the analytical model
describes — every node backlogged every slot, one collision domain. No
protocol produces that pattern, so the harness bypasses protocols
entirely and feeds the channel a full offer set each slot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mac.channel import ContentionChannel
from repro.mac.config import MacConfig
from repro.topologies.basic import complete

__all__ = ["SaturationResult", "saturation_sim"]


@dataclass(frozen=True)
class SaturationResult:
    """Measured saturation statistics over one simulated run.

    ``collision_probability`` is per transmission (failed / total) —
    directly comparable to
    :attr:`~repro.mac.analytic.BianchiPrediction.collision_probability`;
    ``throughput`` is successful slots per simulated slot, comparable to
    :meth:`~repro.mac.analytic.BianchiPrediction.slot_throughput`.
    """

    n: int
    slots: int
    transmissions: int
    successes: int
    collisions: int
    defers: int

    @property
    def collision_probability(self) -> float:
        if not self.transmissions:
            return 0.0
        return self.collisions / self.transmissions

    @property
    def throughput(self) -> float:
        return self.successes / self.slots if self.slots else 0.0


def saturation_sim(
    n: int,
    config: MacConfig,
    slots: int,
    rng: int = 0,
) -> SaturationResult:
    """Saturate a complete graph of ``n`` nodes for ``slots`` MAC slots.

    In a complete graph a transmission succeeds iff it is the slot's only
    one, so ``mac_tx_success`` counts successful slots exactly.
    """
    if slots < 1:
        raise ValueError(f"slots must be >= 1, got {slots}")
    network = complete(n)
    channel = ContentionChannel(network, rng=rng, config=config)
    everyone = np.arange(network.n, dtype=np.int64)
    for _ in range(slots):
        channel.transmit(everyone)
    counters = channel.counters
    return SaturationResult(
        n=n,
        slots=slots,
        transmissions=counters.mac_transmissions,
        successes=counters.mac_tx_success,
        collisions=counters.mac_tx_collisions,
        defers=counters.mac_defers,
    )
