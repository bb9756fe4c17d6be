"""Core noisy radio network model: channel semantics, faults, simulation.

This package is the normative implementation of the model in Section 3.1 of
the paper (:mod:`repro.core.engine` implements the exact semantics):

* synchronized rounds; each node either broadcasts one packet or listens;
* a listening node receives a packet iff **exactly one** neighbor broadcasts;
* *sender faults*: each broadcaster independently transmits noise w.p. ``p``
  (all its would-be receivers get noise);
* *receiver faults*: each node that would receive a packet independently
  gets noise instead w.p. ``p``;
* noise (from collisions, faults, or silence) is never mistaken for a
  legitimate packet.
"""

from repro.core.errors import (
    BroadcastTimeout,
    ProtocolError,
    ReproError,
    SimulationError,
    TopologyError,
)
from repro.core.faults import AdversaryConfig, FaultConfig, FaultModel
from repro.core.network import RadioNetwork
from repro.core.engine import Channel, RoundObserver, RoundResult, Simulator
from repro.core.trace import ChannelCounters, TraceRecorder

__all__ = [
    "AdversaryConfig",
    "BroadcastTimeout",
    "Channel",
    "ChannelCounters",
    "FaultConfig",
    "FaultModel",
    "ProtocolError",
    "RadioNetwork",
    "ReproError",
    "RoundObserver",
    "RoundResult",
    "SimulationError",
    "Simulator",
    "TopologyError",
    "TraceRecorder",
]
