"""Broadcast algorithms: Decay, FASTBC, Robust FASTBC, and baselines.

Single-message algorithms (Section 4.1) are per-node
:class:`~repro.algorithms.base.MessageProtocol` subclasses driven by the
distributed simulator; each writes its broadcast schedule once, in
``act``. Multi-message algorithms (Section 4.2, Section 5) live in
:mod:`repro.algorithms.multi`; its RLNC gossip runs the single-message
protocols' schedules, sending a coded packet where they send the message.
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
