"""Canonical, JSON-serializable run records.

Every :func:`repro.runner.run` call produces one :class:`RunReport`. The
record embeds the scenario that produced it, so a JSON file of reports is
self-describing and any row can be re-run by reconstructing its scenario
with :meth:`~repro.runner.scenario.Scenario.from_dict`.

Determinism contract: everything except ``wall_time_s`` is a pure
function of the scenario (same scenario, same report). The canonical
rendering therefore excludes timing, so byte-level comparison of
:meth:`RunReport.to_json(canonical=True) <RunReport.to_json>` is the
reproducibility check the test suite enforces.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Mapping

__all__ = ["RunReport"]


@dataclass(frozen=True)
class RunReport:
    """The outcome of running one :class:`~repro.runner.scenario.Scenario`.

    ``informed``/``total`` count completed receivers in the algorithm's
    own terms (nodes for network broadcasts, leaves for star schedules,
    the lone receiver for single-link schedules); ``extras`` carries
    algorithm-specific scalars and ``counters`` the channel statistics
    when the run used the real collision channel.

    ``network_n``/``network_name`` describe the network the run actually
    materialized — authoritative where a family ignores the requested
    size (``single_link`` is always 2 nodes regardless of ``n``).

    ``cache_key`` is the scenario's content address
    (:meth:`Scenario.cache_key <repro.runner.scenario.Scenario.cache_key>`),
    set by :func:`repro.runner.run` for every scenario so the report is
    self-identifying in a :class:`~repro.store.ResultStore`. It is empty
    — and omitted from :meth:`to_dict` — only for reports built by hand
    or loaded from JSON that predates the store, so their canonical
    bytes are unchanged.

    ``timeline`` is the run's flight-recorder payload (the canonical
    dict of a :class:`~repro.timeline.Timeline`), attached when the
    scenario opted in. Like ``wall_time_s`` it stays outside the
    canonical form — the store persists it as a sidecar keyed by
    ``cache_key``, not inside the report bytes. It is a ``Mapping``: a
    fresh run attaches a plain dict, and a report served from a
    :class:`~repro.store.ResultStore` a read-only mapping that decodes
    the stored sidecar on first read. Both compare equal, and
    :meth:`to_dict` copies either into a dict.
    """

    scenario: dict
    algorithm: str
    success: bool
    rounds: int
    informed: int
    total: int
    counters: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)
    network_n: int = 0
    network_name: str = ""
    wall_time_s: float = 0.0
    cache_key: str = ""
    timeline: "Mapping | None" = None

    @property
    def informed_fraction(self) -> float:
        return self.informed / self.total if self.total else 0.0

    def to_dict(self, include_timing: bool = True) -> dict[str, Any]:
        """JSON-serializable form (``include_timing=False``: canonical)."""
        data: dict[str, Any] = {
            "scenario": dict(self.scenario),
            "algorithm": self.algorithm,
            "success": self.success,
            "rounds": self.rounds,
            "informed": self.informed,
            "total": self.total,
            "counters": dict(self.counters),
            "extras": dict(self.extras),
            "network_n": self.network_n,
            "network_name": self.network_name,
        }
        if self.cache_key:
            data["cache_key"] = self.cache_key
        if include_timing:
            data["wall_time_s"] = self.wall_time_s
            if self.timeline is not None:
                data["timeline"] = dict(self.timeline)
        return data

    def to_json(self, indent: "int | None" = None, canonical: bool = False) -> str:
        """Render as JSON; ``canonical=True`` drops timing and fixes the
        key order so equal runs compare byte-identical."""
        return json.dumps(
            self.to_dict(include_timing=not canonical),
            indent=indent,
            sort_keys=True,
        )

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunReport":
        """Inverse of :meth:`to_dict`."""
        return cls(
            scenario=dict(data["scenario"]),
            algorithm=data["algorithm"],
            success=bool(data["success"]),
            rounds=int(data["rounds"]),
            informed=int(data["informed"]),
            total=int(data["total"]),
            counters=dict(data.get("counters", {})),
            extras=dict(data.get("extras", {})),
            network_n=int(data.get("network_n", 0)),
            network_name=data.get("network_name", ""),
            wall_time_s=float(data.get("wall_time_s", 0.0)),
            cache_key=data.get("cache_key", ""),
            timeline=data.get("timeline"),
        )
