"""The protocol flight recorder: per-round timelines for broadcast runs.

``repro.telemetry`` (PR 8) made the *infrastructure* observable; this
package makes the *simulated protocols* observable. Opt in per scenario
(``Scenario(timeline=TimelineConfig(...))``) and the run driver
(:func:`repro.algorithms.base.run_broadcast`) appends per-round channel
statistics — informed count, new deliveries, broadcasts, collisions,
fault attribution, RLNC rank progress — to preallocated numpy buffers
through a channel round observer (:class:`TimelineRecorder`; a run
without one pays nothing for it).
The result serializes as a canonical content-addressed
:class:`Timeline` artifact attached to the run report, stored as a
sidecar by :class:`~repro.store.ResultStore`, and served via
``GET /timelines/<key>``.

Consumers: :mod:`repro.timeline.analyze` (wavefront curves,
time-to-percentile-informed, loss attribution, store-wide group-bys)
and :func:`diff_timelines` (align two runs, bisect the first diverging
round). CLI: ``repro timeline show|curve|diff``.

This module deliberately avoids importing the runner/store/analysis
stack at import time — the run driver imports it. The engine does not:
the driver hands the recorder to the simulator as one more observer.
"""

from repro.timeline.artifact import TIMELINE_SCHEMA, Timeline
from repro.timeline.capture import TimelineCapture, capture_timeline
from repro.timeline.config import TimelineConfig
from repro.timeline.diff import TimelineDiff, diff_timelines
from repro.timeline.recorder import DATA_COLUMNS, TimelineRecorder

__all__ = [
    "TIMELINE_SCHEMA",
    "Timeline",
    "TimelineCapture",
    "TimelineConfig",
    "TimelineDiff",
    "TimelineRecorder",
    "DATA_COLUMNS",
    "capture_timeline",
    "diff_timelines",
]
