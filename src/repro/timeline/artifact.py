"""The canonical, content-addressed ``Timeline`` artifact.

A :class:`Timeline` is the serialized form of one run's flight-recorder
buffers: a columnar dict of per-bucket statistics plus the per-node
``first_delivery_round`` detail (reservoir-capped). Like
:class:`~repro.analysis.report.AnalysisReport`, the canonical rendering is
byte-stable — compact separators, sorted keys, schema and code version in
the body — so equal timelines compare byte-identical and
:meth:`Timeline.cache_key` is a valid content address for the sidecar
payload the store keeps next to the run report.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from repro._version import __version__
from repro.timeline.config import TimelineConfig
from repro.timeline.recorder import DATA_COLUMNS, TimelineRecorder

__all__ = ["Timeline", "TIMELINE_SCHEMA", "timeline_key"]

#: bump when the timeline columnar layout changes incompatibly
TIMELINE_SCHEMA = 1


def timeline_key(text: str) -> str:
    """The content address of a canonical timeline rendering: SHA-256 of
    the :meth:`Timeline.to_json` text, so a caller that already holds
    the text need not render it again."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Timeline:
    """One run's per-round flight data, in canonical columnar form.

    ``columns`` maps each :data:`~repro.timeline.recorder.DATA_COLUMNS`
    name to a per-bucket tuple (all the same length). ``first_delivery``
    holds per-node detail: ``{"rounds": (...)}`` covering nodes
    ``0..n-1`` when the run fit under the configured ``node_detail`` cap,
    or ``{"nodes": (...), "rounds": (...)}`` for the deterministic
    evenly-strided reservoir otherwise (``-1`` = never delivered to; the
    source is typically ``-1`` and informed from round 0).
    """

    n: int
    every: int
    rounds: int
    columns: Mapping[str, tuple[int, ...]]
    first_delivery: Mapping[str, tuple[int, ...]]

    @property
    def buckets(self) -> int:
        return len(self.columns["round_start"])

    @property
    def informed_final(self) -> int:
        informed = self.columns["informed"]
        return informed[-1] if informed else 0

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_recorder(cls, recorder: TimelineRecorder) -> "Timeline":
        """Freeze a recorder's buffers (flushes the open bucket)."""
        recorder.finish()
        rows = recorder.rows()
        columns = {
            name: tuple(rows[:, i].tolist())
            for i, name in enumerate(DATA_COLUMNS)
        }
        n = recorder.n
        detail = recorder.config.node_detail
        fd = recorder.first_delivery
        if n <= detail:
            first_delivery = {"rounds": tuple(fd.tolist())}
        else:
            # deterministic evenly-strided reservoir: the same nodes for
            # every run of a given (n, node_detail), so capped timelines
            # from different runs stay node-for-node diffable
            ids = (np.arange(detail, dtype=np.int64) * n) // detail
            first_delivery = {
                "nodes": tuple(ids.tolist()),
                "rounds": tuple(fd[ids].tolist()),
            }
        return cls(
            n=n,
            every=recorder.every,
            rounds=recorder.rounds,
            columns=columns,
            first_delivery=first_delivery,
        )

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Canonical JSON-serializable body (schema + version included)."""
        return {
            "schema": TIMELINE_SCHEMA,
            "version": __version__,
            "n": self.n,
            "every": self.every,
            "rounds": self.rounds,
            "columns": {
                name: list(values) for name, values in self.columns.items()
            },
            "first_delivery": {
                key: list(values)
                for key, values in self.first_delivery.items()
            },
        }

    def to_json(self) -> str:
        """Byte-stable canonical rendering (the stored sidecar payload)."""
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )

    def cache_key(self) -> str:
        """SHA-256 content address over the canonical rendering."""
        return timeline_key(self.to_json())

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Timeline":
        """Inverse of :meth:`to_dict` (tolerates same-schema extras)."""
        schema = int(data.get("schema", TIMELINE_SCHEMA))
        if schema != TIMELINE_SCHEMA:
            raise ValueError(
                f"timeline schema {schema} not supported "
                f"(this code reads schema {TIMELINE_SCHEMA})"
            )
        columns = {
            str(name): tuple(int(v) for v in values)
            for name, values in dict(data["columns"]).items()
        }
        missing = set(DATA_COLUMNS) - set(columns)
        if missing:
            raise ValueError(f"timeline missing columns: {sorted(missing)}")
        first_delivery = {
            str(key): tuple(int(v) for v in values)
            for key, values in dict(data["first_delivery"]).items()
        }
        return cls(
            n=int(data["n"]),
            every=int(data["every"]),
            rounds=int(data["rounds"]),
            columns=columns,
            first_delivery=first_delivery,
        )

    @classmethod
    def from_json(cls, text: str) -> "Timeline":
        return cls.from_dict(json.loads(text))

    def config(self) -> TimelineConfig:
        """The capture config this timeline is consistent with.

        ``node_detail`` is recovered only up to the cap actually applied:
        an uncapped timeline reports ``node_detail >= n``.
        """
        if "nodes" in self.first_delivery:
            detail = len(self.first_delivery["nodes"])
        else:
            detail = max(self.n, 1)
        return TimelineConfig(every=self.every, node_detail=detail)
