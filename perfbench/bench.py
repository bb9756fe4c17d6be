"""Run one workload through ``run_batch``: timed passes, checks, traced split.

Timed passes run with tracing off; the only wrapper is :func:`_run_clock`,
which reads the clock around each ``run`` call for ``run_s_p50``/``p90``.
They stamp with :func:`calibration.clock` while
:func:`calibration.sampling` times its block every 0.1 s, and
:func:`end_to_end` scales each timing by the host's slowdown over it.
A traced run (:func:`trace`) runs each pass untraced and then again
under :func:`tracer.instrument`, and reports each layer's self time, the
residual no layer accounts for, and the tracing overhead.

Output checks: a scenario run fails when ``run_batch`` raises, when
``success`` is false, or when ``informed != total``. A warm replay whose
canonical bytes differ from the cold run fails, and so does a repeat of
pass 0 (or of its first scenario) whose canonical bytes differ.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import resource
import shutil
import statistics
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

import repro.runner.runner as runner_module
from repro import ResultStore
from repro.telemetry.metrics import METRICS

import calibration
from tracer import LAYERS, Tracer, instrument
from workloads import Workload, make_workload

__all__ = ["Prepared", "Tally", "measure", "prepare", "trace"]

_clock = calibration.clock

#: replay time after each pass, for workloads without a store cycle
REPLAY_SECONDS_PER_PASS = 0.3

#: the program's own count of rank-advancing RLNC receptions
_INNOVATIVE = METRICS.counter("repro_rlnc_innovative_total")


# -- checks -------------------------------------------------------------------


@dataclass
class Tally:
    """Attempted and failed scenario runs, with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def fail(self, count: int, reason: str) -> None:
        self.failed += count
        if len(self.errors) < 10:
            self.errors.append(reason)

    def check(self, reports) -> list:
        """Count fresh reports; returns their canonical bytes."""
        canonical = []
        for report in reports:
            self.attempted += 1
            if not report.success or report.informed != report.total:
                self.fail(
                    1,
                    f"{report.algorithm} seed {report.scenario.get('seed')}: "
                    f"success={report.success} informed={report.informed}"
                    f"/{report.total}",
                )
            canonical.append(report.to_json(canonical=True))
        return canonical

    def compare(self, expected: list, reports, what: str) -> None:
        """Count reports that must render ``expected`` byte for byte."""
        for want, report in zip(expected, reports):
            self.attempted += 1
            if report.to_json(canonical=True) != want:
                self.fail(1, f"{what} differs: {report.algorithm} {report.cache_key[:12]}")

    @property
    def failed_fraction(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


# -- stores -------------------------------------------------------------------


def open_store(workdir: str) -> ResultStore:
    """A fresh single-file store in its own directory under ``workdir``."""
    return ResultStore(os.path.join(tempfile.mkdtemp(dir=workdir), "store.db"))


def discard_store(store: ResultStore) -> None:
    store.close()
    shutil.rmtree(os.path.dirname(store.path), ignore_errors=True)


# -- set-up -------------------------------------------------------------------


@dataclass
class Prepared:
    """A workload with its pass sequence started and its first store open."""

    workload: Workload
    passes: Iterator[list]
    first: list
    store: ResultStore
    workdir: str

    def close(self) -> None:
        discard_store(self.store)


def prepare(name: str, seed: int, workdir: str) -> Prepared:
    """Set-up as ``setup_s`` times it: build the scenarios, open the store."""
    workload = make_workload(name, seed)
    passes = workload.passes()
    first = next(passes)
    return Prepared(workload, passes, first, open_store(workdir), workdir)


# -- passes -------------------------------------------------------------------


@dataclass
class PassRecord:
    """What one pass ran and measured.

    ``cold`` holds ``(scenarios, rounds, start, seconds)`` per cold
    ``run_batch`` call and ``warm`` holds ``(scenarios, start, seconds)``
    per replay call: the throughput metrics are summed over these calls.
    """

    scenarios: list
    reports: list = field(default_factory=list)
    canonical: list = field(default_factory=list)
    cold: list = field(default_factory=list)
    warm: list = field(default_factory=list)
    #: innovative RLNC receptions counted while the pass ran (observed
    #: workloads only: the counter moves only with metrics on)
    innovative: int = 0

    @property
    def seconds(self) -> float:
        return sum(c[-1] for c in self.cold) + sum(w[-1] for w in self.warm)


def _untraced(name: str):
    return contextlib.nullcontext()


def _timed(root: Callable, name: str, call: Callable):
    """``(result, start, seconds)`` of one call under ``root(name)``."""
    start = _clock()
    with root(name):
        result = call()
    return result, start, _clock() - start


def run_pass(
    workload: Workload,
    scenarios: list,
    store: Optional[ResultStore],
    tally: Tally,
    root: Callable = _untraced,
) -> PassRecord:
    """Cold ``run_batch`` calls over the pass, then the warm replays."""
    record = PassRecord(scenarios)
    batch_store = store if workload.uses_store else None
    size = workload.batch_size or len(scenarios)
    reports = []
    for offset in range(0, len(scenarios), size):
        chunk = scenarios[offset : offset + size]
        try:
            fresh, start, elapsed = _timed(
                root, "bench.cold", lambda: runner_module.run_batch(chunk, store=batch_store)
            )
        except Exception as exc:  # a raising scenario fails its whole pass
            tally.attempted += len(scenarios) - offset
            tally.fail(len(scenarios) - offset, f"run_batch raised {exc!r}")
            return record
        reports.extend(fresh)
        record.cold.append((len(fresh), sum(r.rounds for r in fresh), start, elapsed))
    record.reports = reports
    record.canonical = tally.check(reports)
    for _ in range(workload.warm_passes):
        try:
            replayed, start, elapsed = _timed(
                root, "bench.warm", lambda: runner_module.run_batch(scenarios, store=batch_store)
            )
        except Exception as exc:
            tally.attempted += len(scenarios)
            tally.fail(len(scenarios), f"warm run_batch raised {exc!r}")
            continue
        record.warm.append((len(scenarios), start, elapsed))
        tally.compare(record.canonical, replayed, "warm replay")
    return record


@contextlib.contextmanager
def _pass_store(prepared: Prepared, fresh: bool) -> Iterator[Optional[ResultStore]]:
    """The store a pass runs against: none, the set-up one, or a fresh one."""
    if not prepared.workload.uses_store:
        yield None
    elif not fresh:
        yield prepared.store
    else:
        store = open_store(prepared.workdir)
        try:
            yield store
        finally:
            discard_store(store)


def _run_passes(prepared: Prepared, seconds: float, tally: Tally) -> list:
    """Whole passes until the next one would overrun ``seconds``.

    A workload without a store cycle of its own stores each pass and
    replays it right after, so that its replay timings are spread over
    the run like the sweep's.
    """
    records = []
    start = _clock()
    scenarios = prepared.first
    while True:
        before = _INNOVATIVE.value
        with _pass_store(prepared, fresh=bool(records)) as store:
            record = run_pass(prepared.workload, scenarios, store, tally)
        record.innovative = _INNOVATIVE.value - before
        records.append(record)
        if not prepared.workload.uses_store and record.reports:
            record.warm = _replay(prepared.store, record, tally)
        if len(records) > 1:
            # later passes keep their timings only, so that peak_rss_mb
            # does not grow with the number of passes the host fits in
            record.scenarios = record.reports = record.canonical = []
        elapsed = _clock() - start
        if elapsed + elapsed / len(records) > seconds:
            return records
        scenarios = next(prepared.passes)


@contextlib.contextmanager
def _metrics_on() -> Iterator[None]:
    was = METRICS.enabled
    METRICS.enable()
    try:
        yield
    finally:
        METRICS.enabled = was


def _observed(workload: Workload):
    return _metrics_on() if workload.observed else contextlib.nullcontext()


@contextlib.contextmanager
def _run_clock() -> Iterator[list]:
    """Times each ``run`` call ``run_batch`` makes: ``(start, seconds)``."""
    original = runner_module.run
    times: list = []

    def timed_run(scenario):
        start = _clock()
        report = original(scenario)
        times.append((start, _clock() - start))
        return report

    runner_module.run = timed_run
    try:
        yield times
    finally:
        runner_module.run = original


# -- fingerprint --------------------------------------------------------------


def fingerprint(record: PassRecord, innovative: int) -> dict:
    """SHA-256 over pass 0's canonical reports plus its simulated counts."""
    digest = hashlib.sha256()
    for text in record.canonical:
        digest.update(text.encode("utf-8"))
        digest.update(b"\n")
    sums = {"rounds": 0, "broadcasts": 0, "deliveries": 0, "collisions": 0}
    for report in record.reports:
        sums["rounds"] += report.rounds
        for key in ("broadcasts", "deliveries", "collisions"):
            sums[key] += int(report.counters.get(key, 0))
    return {
        "sha256": digest.hexdigest(),
        "scenarios": len(record.canonical),
        **sums,
        "innovative": int(innovative),
    }


def _repeat_first(prepared: Prepared, record: PassRecord, tally: Tally) -> int:
    """Re-run pass 0 (or its first scenario) and compare canonical bytes.

    Workloads without a store cycle repeat all of pass 0 with metrics on,
    which also counts its innovative RLNC receptions for the fingerprint;
    the sweep repeats its first scenario only (its pass 0 ran observed).
    """
    if not record.canonical:
        return 0
    if prepared.workload.observed:
        scenarios, expected = record.scenarios[:1], record.canonical[:1]
    else:
        scenarios, expected = record.scenarios, record.canonical
    before = _INNOVATIVE.value
    with _metrics_on():
        try:
            repeated = runner_module.run_batch(scenarios)
        except Exception as exc:
            tally.attempted += len(scenarios)
            tally.fail(len(scenarios), f"repeat raised {exc!r}")
            return 0
    tally.compare(expected, repeated, "repeat of pass 0")
    return _INNOVATIVE.value - before


def _replay(store: ResultStore, record: PassRecord, tally: Tally) -> list:
    """Store a pass, then replay it for ``REPLAY_SECONDS_PER_PASS``."""
    store.put_many(record.reports)
    chunks = []
    replayed_s = 0.0
    while replayed_s < REPLAY_SECONDS_PER_PASS:
        replayed, start, elapsed = _timed(
            _untraced,
            "bench.warm",
            lambda: runner_module.run_batch(record.scenarios, store=store),
        )
        chunks.append((len(record.scenarios), start, elapsed))
        replayed_s += elapsed
        tally.compare(record.canonical, replayed, "warm replay")
    return chunks


# -- the two modes ------------------------------------------------------------


def _quantile(values: list, q: int) -> float:
    """The q-th percentile (inclusive interpolation) of ``values``."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(prepared: Prepared, seconds: float) -> dict:
    """The timed run; :func:`end_to_end` turns it into metrics."""
    tally = Tally()
    workload = prepared.workload
    with _observed(workload), _run_clock() as run_times, calibration.sampling() as calibrated:
        records = _run_passes(prepared, seconds, tally)
    innovative = _repeat_first(prepared, records[0], tally)
    if workload.observed:
        innovative = records[0].innovative
    cold = [c for r in records for c in r.cold]
    warm = [w for r in records for w in r.warm]
    if not cold or not run_times or not warm:
        raise RuntimeError(f"no pass completed: {tally.errors}")
    return {
        "tally": tally,
        "cold": cold,
        "warm": warm,
        "run_times": run_times,
        "peak_rss_mb": peak_rss_mb(),
        "fingerprint": fingerprint(records[0], innovative),
        "passes": len(records),
        "run_samples": len(run_times),
        "calibration": calibrated[0],
    }


def end_to_end(result: dict, setup: list, slowdown: Callable) -> dict:
    """End-to-end metrics, each timing scaled by ``slowdown(start, end)``.

    ``setup`` holds ``(seconds, slowdown)`` per set-up sample. A rate is
    the count summed over the timed ``run_batch`` calls over their summed
    scaled seconds: each call is scaled by the slowdown over its own
    window, so a slow stretch of the host no longer needs a median.
    """

    def rate(calls, field):
        seconds = sum(call[-1] / slowdown(call[-2], call[-2] + call[-1]) for call in calls)
        return sum(call[field] for call in calls) / seconds

    runs = [seconds / slowdown(start, start + seconds) for start, seconds in result["run_times"]]
    return {
        "scenarios_per_s": (rate(result["cold"], 0), "1/s"),
        "sim_rounds_per_s": (rate(result["cold"], 1), "1/s"),
        "run_s_p50": (statistics.median(runs), "s"),
        "run_s_p90": (_quantile(runs, 90), "s"),
        "replay_scenarios_per_s": (rate(result["warm"], 0), "1/s"),
        "setup_s": (statistics.median(seconds / factor for seconds, factor in setup), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def trace(prepared: Prepared, seconds: float) -> dict:
    """The traced run: each pass runs untraced, then again traced.

    Alternating keeps a slow stretch of the host from landing on one side
    of ``trace.overhead_ratio`` only.
    """
    tally = Tally()
    workload = prepared.workload
    tracer = Tracer()
    untraced_s = 0.0
    traced = []
    start = _clock()
    scenarios = prepared.first
    with _observed(workload):
        while True:
            with _pass_store(prepared, fresh=bool(traced)) as store:
                plain = run_pass(workload, scenarios, store, tally)
            with _pass_store(prepared, fresh=True) as store, instrument(tracer):
                traced.append(run_pass(workload, scenarios, store, tally, root=tracer.root))
            if plain.canonical and traced[-1].reports:
                tally.compare(plain.canonical, traced[-1].reports, "traced run")
            untraced_s += plain.seconds
            elapsed = _clock() - start
            if elapsed + elapsed / len(traced) > seconds:
                break
            scenarios = next(prepared.passes)
    reports = [report for r in traced for report in r.reports]
    broadcasts = sum(int(r.counters.get("broadcasts", 0)) for r in reports)
    deliveries = sum(int(r.counters.get("deliveries", 0)) for r in reports)
    layers = tracer.layers
    metrics = {}
    for name in LAYERS:
        metrics[f"{name}_s"] = (layers[name].self_s, "s")
        metrics[f"{name}_calls"] = (layers[name].calls, "count")
    receive = layers["coding.receive"]
    get = layers["store.get"]
    metrics.update(
        {
            "gbst.repair_iterations": (layers["gbst.build"].tally, "count"),
            "core.deliveries_per_broadcast": (
                deliveries / broadcasts if broadcasts else 0.0,
                "ratio",
            ),
            "core.broadcasts": (broadcasts, "count"),
            "coding.innovative_ratio": (
                receive.tally / receive.calls if receive.calls else 0.0,
                "ratio",
            ),
            "store.hit_ratio": (get.tally / get.calls if get.calls else 0.0, "ratio"),
            "trace.wall_s": (tracer.wall_s, "s"),
            "trace.untraced_wall_s": (untraced_s, "s"),
            "trace.overhead_ratio": (
                tracer.wall_s / untraced_s if untraced_s else 0.0,
                "ratio",
            ),
            "trace.residual_s": (tracer.residual_s(), "s"),
            "trace.scenarios": (len(reports), "count"),
            "failed_fraction": (tally.failed_fraction, "ratio"),
        }
    )
    return {"tally": tally, "metrics": metrics, "tracer": tracer, "passes": len(traced)}
