"""Store throughput benchmarks: inserts, queries, cache-hit speedup.

``python benchmarks/bench_store.py [--scale smoke|full] [--output PATH]``
emits ``BENCH_store.json`` (see ``bars.py``) with three measurements:

* ``store_insert``     — batched ``put_many`` throughput (reports/sec),
  bar >= 1,000;
* ``store_query``      — filtered ``query`` throughput (queries/sec),
  bar >= 50;
* ``cache_hit_sweep``  — a repeated 100-scenario sweep served from the
  store vs. recomputed, with the ISSUE-4 acceptance bar (>= 10x).
"""

import sys
import time
from pathlib import Path

from repro.core.faults import FaultConfig
from repro.runner import RunReport, Scenario, expand_grid, run_batch
from repro.store import ResultStore

from bars import Bar, main

SCALES = {
    "smoke": {"inserts": 2000, "queries": 200, "sweep_seeds": 100},
    "full": {"inserts": 20000, "queries": 2000, "sweep_seeds": 100},
}

#: the repeated sweep: 100 scenarios of the paper's Decay under receiver
#: noise — each run costs real simulation time, a cache hit one SQLite read
SWEEP_BASE = Scenario(
    algorithm="decay",
    topology="path",
    topology_params={"n": 64},
    faults=FaultConfig.receiver(0.3),
    seed=0,
)


def _fabricated_reports(count):
    """Distinct-keyed reports without paying simulation time (insert bench)."""
    reports = []
    for seed in range(count):
        scenario = SWEEP_BASE.with_(seed=seed)
        reports.append(
            RunReport(
                scenario=scenario.to_dict(),
                algorithm=scenario.algorithm,
                success=True,
                rounds=120,
                informed=64,
                total=64,
                counters={"rounds": 120},
                network_n=64,
                network_name="path-64",
                wall_time_s=0.01,
                cache_key=scenario.cache_key(),
            )
        )
    return reports


def bench_insert(tmp_dir, count):
    reports = _fabricated_reports(count)
    with ResultStore(str(Path(tmp_dir) / "insert.db")) as store:
        start = time.perf_counter()
        written = store.put_many(reports)
        elapsed = time.perf_counter() - start
    assert written == count
    return {
        "name": "store_insert",
        "reports": count,
        "seconds": round(elapsed, 6),
        "ops_per_sec": round(count / elapsed, 2),
    }


def bench_query(tmp_dir, count):
    with ResultStore(str(Path(tmp_dir) / "query.db")) as store:
        store.put_many(_fabricated_reports(1000))
        start = time.perf_counter()
        for index in range(count):
            reports = store.query(
                algorithm="decay", seed_min=index % 900, seed_max=index % 900 + 50
            )
            assert reports
        elapsed = time.perf_counter() - start
    return {
        "name": "store_query",
        "queries": count,
        "rows_per_query": 51,
        "seconds": round(elapsed, 6),
        "ops_per_sec": round(count / elapsed, 2),
    }


def bench_cache_hit_sweep(tmp_dir, seeds):
    scenarios = expand_grid(SWEEP_BASE, seeds=range(seeds))
    with ResultStore(str(Path(tmp_dir) / "sweep.db")) as store:
        start = time.perf_counter()
        cold = run_batch(scenarios, store=store)
        cold_s = time.perf_counter() - start
        start = time.perf_counter()
        warm = run_batch(scenarios, store=store)
        warm_s = time.perf_counter() - start
    assert [w.to_json(canonical=True) for w in warm] == [
        c.to_json(canonical=True) for c in cold
    ]
    return {
        "name": "cache_hit_sweep",
        "scenarios": len(scenarios),
        "cold_seconds": round(cold_s, 6),
        "warm_seconds": round(warm_s, 6),
        "speedup": round(cold_s / warm_s, 2),
    }


def measure(sizes, tmp_dir):
    return [
        bench_insert(tmp_dir, sizes["inserts"]),
        bench_query(tmp_dir, sizes["queries"]),
        bench_cache_hit_sweep(tmp_dir, sizes["sweep_seeds"]),
    ]


BARS = (
    Bar("store_insert.ops_per_sec", ">=", 1000.0),
    Bar("store_query.ops_per_sec", ">=", 50.0),
    # a fully cached 100-scenario sweep replays >= 10x faster than
    # recomputation
    Bar("cache_hit_sweep.speedup", ">=", 10.0),
)


if __name__ == "__main__":
    sys.exit(main("bench_store", SCALES, measure, BARS))
