"""Binding a flight recorder to the run that is about to execute.

The runner knows *that* a scenario wants a timeline
(``Scenario.timeline``); the run driver,
:func:`repro.algorithms.base.run_broadcast`, knows *where* the rounds
happen. They meet here: :func:`capture_timeline` parks a
:class:`TimelineCapture` slot in a :class:`contextvars.ContextVar` for
the duration of ``algorithm.run``, and the driver asks
:func:`armed_recorder` for a fresh recorder. It hands that recorder to
its :class:`~repro.core.engine.Simulator` as a round observer and to the
protocol layer (RLNC credits rank progress to it), and marks the layer's
initially-active nodes informed: every broadcast protocol in this repo
starts active iff it holds the message.

First-run-only is deliberate: a registry algorithm makes at most one
driver run per call (the single-link schedules run on no channel), and
channels built outside the driver (benchmarks, probes) never see the
slot. A ContextVar rather
than a module global keeps concurrent runs in the service's job threads
isolated; pool workers inherit nothing because the context is entered
inside :func:`repro.runner.run`, which executes *in* the worker.
"""

from __future__ import annotations

import contextlib
import contextvars
from typing import Iterator, Optional

from repro.timeline.config import TimelineConfig
from repro.timeline.recorder import TimelineRecorder

__all__ = ["TimelineCapture", "armed_recorder", "capture_timeline"]


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


def armed_recorder(n: int) -> Optional[TimelineRecorder]:
    """A fresh recorder for an ``n``-node run if capture is armed, else None.

    The run driver calls it once per run. Only the first run of a
    capture context gets a recorder; later ones (none exist for registry
    algorithms today) run unrecorded rather than resetting the buffers.
    """
    slot = _CAPTURE.get()
    if slot is None or slot.recorder is not None:
        return None
    slot.recorder = TimelineRecorder(n, slot.config)
    return slot.recorder
