"""Broadcast algorithms: Decay, FASTBC, Robust FASTBC, and baselines.

Each single-message algorithm (Section 4.1) is written twice: as a
schedule, which one :class:`~repro.algorithms.schedule.ScheduleLayer`
runs for every node, and as a per-node
:class:`~repro.algorithms.base.MessageProtocol` subclass, the scalar
reference the layer is tested against draw for draw. Multi-message
algorithms (Section 4.2, Section 5) live in :mod:`repro.algorithms.multi`;
its RLNC gossip runs the single-message schedules, sending a coded packet
where they send the message.
"""

from repro.algorithms.base import (
    BroadcastOutcome,
    MessageProtocol,
    ilog2,
    run_broadcast,
)
from repro.algorithms.decay import DecayProtocol, decay_broadcast
from repro.algorithms.fastbc import FastBCProtocol, fastbc_broadcast
from repro.algorithms.repetition import (
    RepeatedFastBCProtocol,
    repeated_fastbc_broadcast,
)
from repro.algorithms.robust_fastbc import (
    RobustFastBCProtocol,
    robust_fastbc_broadcast,
)

__all__ = [
    "BroadcastOutcome",
    "DecayProtocol",
    "FastBCProtocol",
    "MessageProtocol",
    "RepeatedFastBCProtocol",
    "RobustFastBCProtocol",
    "decay_broadcast",
    "fastbc_broadcast",
    "ilog2",
    "repeated_fastbc_broadcast",
    "robust_fastbc_broadcast",
    "run_broadcast",
]
