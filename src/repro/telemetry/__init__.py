"""Zero-overhead observability: metrics, span tracing, exposition.

Two module-level singletons the whole stack shares:

* :data:`METRICS` — a :class:`~repro.telemetry.metrics.MetricsRegistry`
  of counters/gauges/histograms. Instrumented hot paths gate on the
  ``METRICS.enabled`` attribute, so telemetry off costs one attribute
  read per seam (enforced by ``benchmarks/bench_overhead.py``).
* :data:`TRACER` — a :class:`~repro.telemetry.tracing.Tracer` writing
  JSONL spans through a sampling :class:`~repro.telemetry.tracing
  .TraceSink`, with trace/span ids derived deterministically from
  scenario cache keys.

Surfacing: the service serves ``GET /metrics`` (Prometheus text) and
``GET /metrics.json``; ``repro top --connect URL`` renders a live view;
``repro trace show|summarize`` reads the JSONL sinks.

Neither subsystem ever touches canonical report bytes — reports are
byte-identical with telemetry on or off, and the test suite checks it.
"""

from repro.telemetry.metrics import (
    METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.tracing import (
    TRACE_HEADER,
    TRACER,
    TraceSink,
    Tracer,
    configure_from_env,
    read_trace_file,
    span_id_for,
    trace_id_for_key,
    trace_id_for_keys,
)

__all__ = [
    "METRICS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TRACE_HEADER",
    "TRACER",
    "TraceSink",
    "Tracer",
    "configure_from_env",
    "read_trace_file",
    "span_id_for",
    "trace_id_for_key",
    "trace_id_for_keys",
]
