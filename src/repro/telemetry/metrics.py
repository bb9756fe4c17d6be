"""Process-local metrics: counters, gauges, histograms, Prometheus text.

One module-level :data:`METRICS` registry instruments the whole stack —
finished runs' channel and MAC counts, RLNC rank progress, store
latency, coordinator lease lifecycle, worker splits, client retries.
The design constraint is the hot path: instrumented code gates every
update on ``METRICS.enabled``, a plain attribute read. The channel reads
none; the run driver adds a finished run's counters once, so a
simulation run with telemetry off pays one load-and-branch per run (and
one per RLNC reception) and nothing else (``bench_overhead.py`` enforces
<= 5% on whole runs with it on). Metric *objects* are created once at
module import; the disabled path never takes a lock, never formats a
string, never touches a dict.

Metrics live outside the determinism contract by construction: nothing
in this module is ever written into a :class:`~repro.runner.RunReport`,
so canonical report bytes are identical with telemetry on or off (the
telemetry test suite property-checks this end to end).

The registry renders two ways: :meth:`MetricsRegistry.prometheus_text`
is the ``GET /metrics`` exposition (text format 0.0.4), and
:meth:`MetricsRegistry.snapshot` the JSON twin behind ``GET
/metrics.json`` and ``repro top``.

Multiprocessing caveat: counters are per-process. A ``run_batch`` with a
process pool accumulates engine metrics in the *pool workers*, which
vanish with them; the farm worker and the service — the processes whose
observability matters — run their hot loops in-process, so their
registries see everything they do.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Iterator, Optional, Sequence, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "METRICS",
    "DEFAULT_BUCKETS",
]

#: histogram bucket upper bounds (seconds): store/query latency range
DEFAULT_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

Number = Union[int, float]


def _format_value(value: Number) -> str:
    """Prometheus sample value: integers without a trailing ``.0``."""
    if isinstance(value, bool):  # bool is an int; never expose True/False
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _render_labels(names: Sequence[str], values: Sequence[str]) -> str:
    if not names:
        return ""
    pairs = ",".join(
        f'{name}="{_escape_label(str(value))}"'
        for name, value in zip(names, values)
    )
    return "{" + pairs + "}"


class Counter:
    """A monotonically increasing count, optionally with labels.

    The unlabeled fast path (:meth:`inc`) is what hot loops use; labeled
    children (:meth:`inc_labels`) exist for low-rate dimensions like
    HTTP method/route where cardinality is bounded by the router.
    """

    kind = "counter"

    __slots__ = ("name", "help", "labelnames", "_lock", "_value", "_children")

    def __init__(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._value: Number = 0
        self._children: dict[tuple[str, ...], Number] = {}

    def inc(self, amount: Number = 1) -> None:
        with self._lock:
            self._value += amount

    def inc_labels(self, labelvalues: Sequence[str], amount: Number = 1) -> None:
        key = tuple(str(value) for value in labelvalues)
        if len(key) != len(self.labelnames):
            raise ValueError(
                f"{self.name} takes labels {self.labelnames}, got {key}"
            )
        with self._lock:
            self._children[key] = self._children.get(key, 0) + amount

    @property
    def value(self) -> Number:
        with self._lock:
            return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0
            self._children.clear()

    def samples(self) -> Iterator[tuple[str, Number]]:
        """``(label_suffix, value)`` pairs for exposition."""
        with self._lock:
            children = sorted(self._children.items())
            value = self._value
        if not self.labelnames:
            yield "", value
        for key, child_value in children:
            yield _render_labels(self.labelnames, key), child_value

    def to_dict(self) -> dict[str, Any]:
        with self._lock:
            payload: dict[str, Any] = {"kind": self.kind, "value": self._value}
            if self._children:
                payload["labeled"] = [
                    {
                        "labels": dict(zip(self.labelnames, key)),
                        "value": value,
                    }
                    for key, value in sorted(self._children.items())
                ]
        return payload


class Gauge(Counter):
    """A value that can go both ways (queue depths, timestamps)."""

    kind = "gauge"

    __slots__ = ()

    def set(self, value: Number) -> None:
        with self._lock:
            self._value = value

    def dec(self, amount: Number = 1) -> None:
        self.inc(-amount)


class Histogram:
    """Cumulative-bucket latency histogram (unlabeled; one per seam)."""

    kind = "histogram"

    __slots__ = ("name", "help", "buckets", "_lock", "_counts", "_sum", "_count")

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError(f"buckets must be sorted and non-empty: {buckets}")
        self.name = name
        self.help = help
        self.buckets = tuple(float(b) for b in buckets)
        self._lock = threading.Lock()
        self._counts = [0] * len(self.buckets)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        with self._lock:
            self._sum += value
            self._count += 1
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    self._counts[index] += 1
                    break

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def reset(self) -> None:
        with self._lock:
            self._counts = [0] * len(self.buckets)
            self._sum = 0.0
            self._count = 0

    def cumulative(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` per bucket, +Inf last."""
        with self._lock:
            counts = list(self._counts)
            total = self._count
        out: list[tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.buckets, counts):
            running += count
            out.append((bound, running))
        out.append((float("inf"), total))
        return out

    def to_dict(self) -> dict[str, Any]:
        with self._lock:
            payload = {
                "kind": self.kind,
                "count": self._count,
                "sum": round(self._sum, 9),
            }
        payload["buckets"] = {
            ("+Inf" if bound == float("inf") else _format_value(bound)): count
            for bound, count in self.cumulative()
        }
        return payload


class MetricsRegistry:
    """A named collection of metrics with one cheap ``enabled`` flag.

    Registration is idempotent — asking for an existing name returns the
    existing metric (so every module can declare its metrics at import
    without ordering concerns) — and kind-checked, so two modules cannot
    silently share a name across kinds.
    """

    def __init__(self, enabled: bool = False) -> None:
        #: the hot-path gate: instrumented code reads this attribute and
        #: branches; everything else in the module is off that path
        self.enabled = bool(enabled)
        self._lock = threading.Lock()
        self._metrics: dict[str, Union[Counter, Gauge, Histogram]] = {}

    # -- lifecycle ----------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Zero every metric (keeps registrations; for tests and tools)."""
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            metric.reset()

    # -- registration -------------------------------------------------------

    def _register(self, cls, name: str, help: str, **kwargs):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, help, **kwargs)
                self._metrics[name] = metric
            elif type(metric) is not cls:
                raise ValueError(
                    f"metric {name!r} already registered as {metric.kind}"
                )
            return metric

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        return self._register(Counter, name, help, labelnames=labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge:
        return self._register(Gauge, name, help, labelnames=labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._register(Histogram, name, help, buckets=buckets)

    def get(self, name: str) -> Optional[Union[Counter, Gauge, Histogram]]:
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> list[str]:
        with self._lock:
            return list(self._metrics)

    # -- exposition ---------------------------------------------------------

    def prometheus_text(self) -> str:
        """The ``GET /metrics`` body (Prometheus text format 0.0.4)."""
        with self._lock:
            metrics = list(self._metrics.values())
        lines: list[str] = []
        for metric in metrics:
            if metric.help:
                lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            if isinstance(metric, Histogram):
                for bound, count in metric.cumulative():
                    le = "+Inf" if bound == float("inf") else _format_value(bound)
                    lines.append(f'{metric.name}_bucket{{le="{le}"}} {count}')
                lines.append(f"{metric.name}_sum {_format_value(metric.sum)}")
                lines.append(f"{metric.name}_count {metric.count}")
            else:
                for suffix, value in metric.samples():
                    lines.append(f"{metric.name}{suffix} {_format_value(value)}")
        return "\n".join(lines) + "\n"

    def snapshot(self) -> dict[str, Any]:
        """Every metric as JSON-ready dicts (the ``/metrics.json`` body)."""
        with self._lock:
            metrics = list(self._metrics.items())
        return {name: metric.to_dict() for name, metric in metrics}


#: the process-wide registry every instrumented module shares. Off by
#: default; the service enables it at startup, library users opt in via
#: METRICS.enable() or REPRO_TELEMETRY=1.
METRICS = MetricsRegistry(
    enabled=os.environ.get("REPRO_TELEMETRY", "") not in ("", "0")
)
