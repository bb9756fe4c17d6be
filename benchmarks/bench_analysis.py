"""Analysis throughput benchmarks: streamed aggregation over the store.

``python benchmarks/bench_analysis.py [--scale smoke|full] [--output PATH]``
emits ``BENCH_analysis.json`` (see ``bars.py``) with the size of the
fabricated store (``build_store``) and three measurements:

* ``aggregate_stream``  — group-by aggregation throughput (rows/sec)
  streamed straight from SQLite via ``ResultStore.iter_rows`` (no
  canonical-JSON parsing). The acceptance bar is >= 50k rows/s on a
  100k-row store (the full scale);
* ``bootstrap_groups``  — per-group seeded-bootstrap cost included, i.e.
  the full ``repro analyze aggregate`` path;
* ``compare_paired``    — paired two-arm comparison over the same store.
"""

import sys
import time
from pathlib import Path

from repro.analysis import aggregate, compare
from repro.core.faults import FaultConfig
from repro.runner import RunReport, Scenario
from repro.store import ResultStore

from bars import Bar, main

SCALES = {
    "smoke": {"rows": 20_000},
    "full": {"rows": 100_000},
}

_ALGORITHMS = ("decay", "fastbc", "rlnc_decay", "robust_fastbc")
_SIZES = (32, 48, 64, 96)


def build_store(path, rows):
    """A store of ``rows`` distinct-keyed fabricated reports.

    Fabricated (not simulated) so the benchmark times the analysis
    layer, not the simulator; the key grid spans algorithms x sizes x
    seeds like a real E-series sweep.
    """
    store = ResultStore(path)
    per_cell = rows // (len(_ALGORITHMS) * len(_SIZES))
    reports = []
    written = 0
    for algorithm in _ALGORITHMS:
        for n in _SIZES:
            scenario = Scenario(
                algorithm=algorithm,
                topology="path",
                topology_params={"n": n},
                params={"k": 4} if algorithm.startswith("rlnc") else {},
                faults=FaultConfig.receiver(0.3),
                seed=0,
            )
            for seed in range(per_cell):
                cell = scenario.with_(seed=seed)
                rounds = 40 + (n * 3) + (seed * 7919) % 97
                reports.append(
                    RunReport(
                        scenario=cell.to_dict(),
                        algorithm=algorithm,
                        success=(seed % 50) != 0,
                        rounds=rounds,
                        informed=n,
                        total=n,
                        counters={"rounds": rounds},
                        network_n=n,
                        network_name=f"path-{n}",
                        wall_time_s=0.01,
                        cache_key=cell.cache_key(),
                    )
                )
                if len(reports) >= 5000:
                    written += store.put_many(reports)
                    reports = []
    written += store.put_many(reports)
    return store, written


def bench_aggregate_stream(store, rows):
    start = time.perf_counter()
    report = aggregate(
        store, by=("algorithm", "n"), metric="rounds", resamples=200
    )
    elapsed = time.perf_counter() - start
    assert report.summary["rows_scanned"] == rows
    return {
        "name": "aggregate_stream",
        "rows": rows,
        "groups": report.summary["groups"],
        "seconds": round(elapsed, 6),
        "rows_per_sec": round(rows / elapsed, 2),
    }


def bench_bootstrap_groups(store, rows):
    start = time.perf_counter()
    report = aggregate(
        store,
        by=("algorithm", "n", "fault_p"),
        metric="rounds",
        resamples=2000,
    )
    elapsed = time.perf_counter() - start
    return {
        "name": "bootstrap_groups",
        "rows": rows,
        "groups": report.summary["groups"],
        "resamples": 2000,
        "seconds": round(elapsed, 6),
        "rows_per_sec": round(rows / elapsed, 2),
    }


def bench_compare_paired(store, rows):
    start = time.perf_counter()
    report = compare(
        store,
        arm_a={"algorithm": "decay"},
        arm_b={"algorithm": "fastbc"},
        match_on=("n", "seed"),
        resamples=1000,
    )
    elapsed = time.perf_counter() - start
    assert report.summary["pairs"] > 0
    return {
        "name": "compare_paired",
        "rows": rows,
        "pairs": report.summary["pairs"],
        "seconds": round(elapsed, 6),
        "rows_per_sec": round(rows / elapsed, 2),
    }


def measure(sizes, tmp_dir):
    store, written = build_store(str(Path(tmp_dir) / "bench.db"), sizes["rows"])
    with store:
        return [
            {"name": "build_store", "store_rows": written},
            bench_aggregate_stream(store, written),
            bench_bootstrap_groups(store, written),
            bench_compare_paired(store, written),
        ]


BARS = (Bar("aggregate_stream.rows_per_sec", ">=", 50_000.0),)


if __name__ == "__main__":
    sys.exit(main("bench_analysis", SCALES, measure, BARS))
