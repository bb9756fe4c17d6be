"""Binding a flight recorder to the run that is about to execute.

The runner knows *that* a scenario wants a timeline
(``Scenario.timeline``); the engine knows *where* the rounds happen
(the :class:`~repro.core.engine.Simulator` built deep inside an
algorithm's entry point). They meet here: :func:`capture_timeline`
parks a :class:`TimelineCapture` slot in a :class:`contextvars.ContextVar`
for the duration of ``algorithm.run``, and the first Simulator
constructed inside the context appends a fresh recorder to its channel's
observers (and seeds the informed set from the protocol layer's
initially-active nodes — every broadcast protocol in this repo starts
``active`` iff it holds the message).

First-Simulator-only is deliberate: every channel-based algorithm in the
registry drives exactly one Simulator per run, while helper channels
built elsewhere (schedule executors, benchmarks, probes) never see the
slot because they do not go through ``Simulator``. A ContextVar rather
than a module global keeps concurrent runs in the service's job threads
isolated; pool workers inherit nothing because the context is entered
inside :func:`repro.runner.run`, which executes *in* the worker.
"""

from __future__ import annotations

import contextlib
import contextvars
from typing import TYPE_CHECKING, Iterator, Optional

from repro.timeline.config import TimelineConfig
from repro.timeline.recorder import TimelineRecorder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.engine import Simulator

__all__ = ["TimelineCapture", "capture_timeline", "active_capture"]


class TimelineCapture:
    """The slot a capture context exposes: config in, recorder out."""

    def __init__(self, config: TimelineConfig) -> None:
        self.config = config
        self.recorder: Optional[TimelineRecorder] = None


_CAPTURE: "contextvars.ContextVar[Optional[TimelineCapture]]" = (
    contextvars.ContextVar("repro_timeline_capture", default=None)
)


@contextlib.contextmanager
def capture_timeline(config: TimelineConfig) -> Iterator[TimelineCapture]:
    """Arm timeline capture for the code run inside the context."""
    if not isinstance(config, TimelineConfig):
        raise TypeError(
            f"config must be a TimelineConfig, got {type(config).__name__}"
        )
    slot = TimelineCapture(config)
    token = _CAPTURE.set(slot)
    try:
        yield slot
    finally:
        _CAPTURE.reset(token)


def active_capture() -> Optional[TimelineCapture]:
    """The armed capture slot, or None outside any capture context."""
    return _CAPTURE.get()


def maybe_bind_simulator(simulator: "Simulator") -> None:
    """Attach a recorder to ``simulator``'s channel if capture is armed.

    Called from ``Simulator.__init__``. Only the first simulator of a
    capture context binds; later ones (none exist for registry
    algorithms today) run unrecorded rather than resetting the buffers.
    """
    slot = _CAPTURE.get()
    if slot is None or slot.recorder is not None:
        return
    recorder = TimelineRecorder(simulator.network.n, slot.config)
    for node in simulator.layer.active_nodes():
        recorder.mark_informed(node)
    slot.recorder = recorder
    simulator.channel.observers.append(recorder)
