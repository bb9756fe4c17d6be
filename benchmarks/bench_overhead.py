"""Observer overhead benchmark: one harness for every observer bar.

``python benchmarks/bench_overhead.py [--scale smoke|full] [--output PATH]``
emits ``BENCH_overhead.json`` (see ``bars.py``) with one channel-round
workload (a sparse G(n, p) with n/8 senders per round) timed three ways:

* ``bare``     — ``Channel._checked`` then ``Channel._resolve_round``,
  the engine's own un-observed round (validate, resolve, count,
  advance): no observer loop;
* ``disabled`` — ``Channel.transmit`` with no observers, i.e. what
  every run that asks for nothing pays;
* ``timeline`` — ``Channel.transmit`` with a ``TimelineRecorder``
  (``every=1``) observer appending one bucket per round.

The channel reads no metrics: the run driver adds a finished run's
counters to them. So the metrics are timed where they are paid, on
whole ``decay_broadcast`` runs over the same graph (receiver faults
p=0.1), two ways: ``disabled`` with ``METRICS.enabled`` off and
``metrics`` with it on.

Three bars hold the observed legs' overhead over their baseline:
channel-round disabled <= 1% and timeline <= 5% over bare, and driver
metrics <= 5% over driver disabled.

Two byte-identity checks guard the invariant the bars exist to protect:
canonical report bytes from ``run_batch`` are identical with telemetry
and span tracing fully on vs off, and with the timeline recorder on vs
off once the scenario's own ``timeline`` opt-in entry (and hence the
cache key) is set aside. A ``memory_model`` entry reports the recorder's
measured footprint for PERFORMANCE.md: its per-node arrays at n=10^5,
and the bytes each bucket row holds.

Each workload runs its legs in lockstep — every round (every run) is
resolved by each leg back to back, in a rotating order — and each leg's
time is the sum over rounds (runs) of its best-of-N time. Drift in
machine load thus lands on every leg equally, and a burst only spoils
the repeats it hits.
"""

import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.algorithms.decay import decay_broadcast
from repro.core.engine import Channel, RoundResult
from repro.core.faults import FaultConfig
from repro.runner import Scenario, expand_grid, run_batch
from repro.telemetry.metrics import METRICS
from repro.telemetry.tracing import TRACER, TraceSink
from repro.timeline import TimelineConfig, TimelineRecorder
from repro.topologies import random_graphs
from repro.util.rng import RandomSource

from bars import Bar, main

LEGS = ("bare", "disabled", "timeline")

#: the driver-run legs: metrics off, then on
DRIVER_LEGS = ("disabled", "metrics")

SCALES = {
    "smoke": {"rounds": 600, "repeats": 9, "n": 1024, "runs": 8},
    "full": {"rounds": 2000, "repeats": 15, "n": 1024, "runs": 16},
}

#: the byte-identity sweep: small but multi-seed, the store-canonical path
_IDENTITY_SCENARIOS = 8

#: the PERFORMANCE.md memory-model size, and the bucket rows it flushes
_MEMORY_MODEL_N = 100_000
_MEMORY_MODEL_ROWS = 1000


def _network(n, seed):
    """The harness's graph: a sparse G(n, p) of mean degree 16."""
    return random_graphs.gnp(n, 16.0 / n, rng=seed)


def _workload(rounds, n, seed=7):
    """The channel-round workload: sparse G(n, p), n/8 senders per round."""
    network = _network(n, seed)
    pick = RandomSource(seed)
    rounds_broadcasters = [
        np.array(
            sorted(pick.sample(range(network.n), network.n // 8)), dtype=np.int64
        )
        for _ in range(rounds)
    ]
    return network, rounds_broadcasters


def _leg_channel(leg, network, seed):
    """A fresh channel for ``leg`` and the call that resolves one round."""
    channel = Channel(network, FaultConfig.receiver(0.1), rng=seed)
    if leg == "bare":
        check, resolve = channel._checked, channel._resolve_round
        auto = channel._resolve_auto
        return channel, lambda broadcasters: resolve(check(broadcasters), auto)
    if leg == "timeline":
        channel.observers.append(
            TimelineRecorder(network.n, TimelineConfig(every=1))
        )
    return channel, channel.transmit


def _leg_entries(best, base, count, rate):
    """Each leg's best seconds, ``count`` per second under the key
    ``rate``, and its overhead over the ``base`` leg."""
    return {
        leg: {
            "seconds": round(seconds, 6),
            rate: round(count / seconds, 2),
            "overhead_fraction": round(
                max(0.0, (seconds - best[base]) / best[base]), 4
            ),
        }
        for leg, seconds in best.items()
    }


def bench_channel_overhead(rounds, repeats, n, seed=7):
    """Best-of-``repeats`` seconds per leg, with overhead over bare."""
    network, rounds_broadcasters = _workload(rounds, n, seed=seed)
    samples = {leg: np.empty((repeats, rounds)) for leg in LEGS}
    clock = time.perf_counter
    for repeat in range(repeats):
        legs = {leg: _leg_channel(leg, network, seed) for leg in LEGS}
        for index, broadcasters in enumerate(rounds_broadcasters):
            shift = (index + repeat) % len(LEGS)
            for leg in LEGS[shift:] + LEGS[:shift]:
                step = legs[leg][1]
                start = clock()
                step(broadcasters)
                samples[leg][repeat, index] = clock() - start
        # every leg must simulate the same rounds, or the baseline
        # is measuring a different simulation
        counters = [channel.counters.as_dict() for channel, _ in legs.values()]
        assert all(c == counters[0] for c in counters), (
            f"an observer changed the simulation: {counters}"
        )
        recorder = legs["timeline"][0].observers[0]
        recorder.finish()
        assert len(recorder) == rounds
    best = {leg: float(samples[leg].min(axis=0).sum()) for leg in LEGS}
    return {
        "name": "channel_round_overhead",
        "rounds": rounds,
        "repeats": repeats,
        "n": network.n,
        "m": network.edge_count,
        "broadcasters": network.n // 8,
        "legs": _leg_entries(best, "bare", rounds, "rounds_per_sec"),
    }


def bench_driver_overhead(runs, repeats, n, seed=7):
    """Best-of-``repeats`` seconds of ``runs`` whole Decay runs per leg,
    with the metrics leg's overhead over the disabled one."""
    network = _network(n, seed)
    faults = FaultConfig.receiver(0.1)
    rounds = METRICS.counter("repro_channel_rounds_total")
    samples = {leg: np.empty((repeats, runs)) for leg in DRIVER_LEGS}
    clock = time.perf_counter
    was_enabled = METRICS.enabled
    counted = simulated = 0
    try:
        for repeat in range(repeats):
            for run in range(runs):
                order = DRIVER_LEGS if (run + repeat) % 2 else DRIVER_LEGS[::-1]
                outcomes = {}
                for leg in order:
                    METRICS.enabled = leg == "metrics"
                    before = rounds.value
                    start = clock()
                    outcomes[leg] = decay_broadcast(network, faults, rng=seed + run)
                    samples[leg][repeat, run] = clock() - start
                    counted += rounds.value - before
                # both legs must simulate the same run, and only the
                # metrics leg may count it
                assert outcomes["disabled"] == outcomes["metrics"]
                simulated += outcomes["metrics"].counters.rounds
    finally:
        METRICS.enabled = was_enabled
    assert counted == simulated, (
        f"the metrics counted {counted} of the metrics leg's {simulated} rounds"
    )
    best = {leg: float(samples[leg].min(axis=0).sum()) for leg in DRIVER_LEGS}
    return {
        "name": "driver_run_overhead",
        "runs": runs,
        "repeats": repeats,
        "n": network.n,
        "m": network.edge_count,
        "legs": _leg_entries(best, "disabled", runs, "runs_per_sec"),
    }


def check_byte_identity(tmp_dir):
    """Canonical report bytes with every observer on vs off.

    Telemetry and span tracing must leave the bytes identical; a
    recorded timeline may move only the scenario's own ``timeline`` entry
    and the cache key. Raises AssertionError on any other difference.
    """
    base = Scenario(
        algorithm="decay",
        topology="path",
        topology_params={"n": 32},
        faults=FaultConfig.receiver(0.3),
    )
    plain = expand_grid(base, seeds=range(_IDENTITY_SCENARIOS))
    recorded = [
        scenario.with_(timeline=TimelineConfig(every=1)) for scenario in plain
    ]
    was_enabled = METRICS.enabled
    previous_sink = TRACER.sink
    trace_path = str(Path(tmp_dir) / "bench-identity.jsonl")
    try:
        METRICS.enabled = False
        TRACER.configure(None)
        off = run_batch(plain)
        METRICS.enabled = True
        TRACER.configure(TraceSink(trace_path, rate=1.0))
        on = run_batch(plain)
        spans_written = TRACER.sink.written
        METRICS.enabled = False
        TRACER.configure(None)
        timed = run_batch(recorded)
    finally:
        METRICS.enabled = was_enabled
        TRACER.configure(previous_sink)

    buckets = 0
    for scenario, report_off, report_on, report_timed in zip(
        plain, off, on, timed
    ):
        assert report_off.to_json(canonical=True) == report_on.to_json(
            canonical=True
        ), f"telemetry leaked into canonical bytes for {scenario.cache_key()}"
        assert report_off.timeline is None
        assert report_timed.timeline is not None
        buckets += len(report_timed.timeline["columns"]["round_start"])
        a = json.loads(report_off.to_json(canonical=True))
        b = json.loads(report_timed.to_json(canonical=True))
        b["scenario"].pop("timeline")
        a.pop("cache_key")
        b.pop("cache_key")
        assert a == b, (
            f"recording changed canonical report bytes for seed {scenario.seed}"
        )
    assert spans_written >= 1, "span tracing wrote nothing"
    assert buckets >= 1, "the timeline recorded no bucket"
    return {
        "name": "byte_identity",
        "scenarios": len(plain),
        "identical": True,
        "spans_written": spans_written,
        "buckets_recorded": buckets,
    }


def measure_memory_model(n=_MEMORY_MODEL_N, rows=_MEMORY_MODEL_ROWS):
    """Measured recorder footprint (PERFORMANCE.md): the per-node arrays
    at large n, and the bytes a bucket row takes (its tuple and its list
    slot) over ``rows`` silent rounds at ``every=1``."""
    recorder = TimelineRecorder(n, TimelineConfig(every=1))
    per_node = (
        recorder.first_delivery.nbytes + recorder._informed_mask.nbytes
    )
    for index in range(rows):
        recorder.on_round(RoundResult(index))
    recorder.finish()
    row_bytes = (
        sys.getsizeof(recorder._rows) + sum(map(sys.getsizeof, recorder._rows))
    ) / rows
    return {
        "name": "memory_model",
        "n": n,
        "per_node_bytes": per_node,
        "rows": rows,
        "bucket_row_bytes": round(row_bytes, 1),
    }


def measure(sizes, tmp_dir):
    return [
        bench_channel_overhead(sizes["rounds"], sizes["repeats"], sizes["n"]),
        bench_driver_overhead(sizes["runs"], sizes["repeats"], sizes["n"]),
        check_byte_identity(tmp_dir),
        measure_memory_model(),
    ]


#: allowed overhead over its baseline leg, per observed leg
BARS = tuple(
    Bar(f"{name}.legs.{leg}.overhead_fraction", "<=", limit)
    for name, leg, limit in (
        ("channel_round_overhead", "disabled", 0.01),
        ("channel_round_overhead", "timeline", 0.05),
        ("driver_run_overhead", "metrics", 0.05),
    )
)


if __name__ == "__main__":
    sys.exit(main("bench_overhead", SCALES, measure, BARS))
