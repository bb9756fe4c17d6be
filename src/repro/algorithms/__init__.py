"""Broadcast algorithms: Decay, FASTBC, Robust FASTBC, and baselines.

Each single-message algorithm (Section 4.1) is one schedule, which one
:class:`~repro.algorithms.schedule.ScheduleLayer` runs for every node;
the schedule's docstring states each node's rule. Multi-message
algorithms (Section 4.2, Section 5) live in :mod:`repro.algorithms.multi`;
its RLNC gossip runs the single-message schedules, sending a coded packet
where they send the message. Every algorithm on the channel runs through
one driver, :func:`run_broadcast`: an entry point declares its layer (or
script) and its round budget, and the driver does the run.
"""

from repro.algorithms.base import (
    BroadcastOutcome,
    ilog2,
    run_broadcast,
)
from repro.algorithms.decay import decay_broadcast
from repro.algorithms.fastbc import fastbc_broadcast
from repro.algorithms.repetition import repeated_fastbc_broadcast
from repro.algorithms.robust_fastbc import robust_fastbc_broadcast

__all__ = [
    "BroadcastOutcome",
    "decay_broadcast",
    "fastbc_broadcast",
    "ilog2",
    "repeated_fastbc_broadcast",
    "robust_fastbc_broadcast",
    "run_broadcast",
]
