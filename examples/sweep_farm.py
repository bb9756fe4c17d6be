"""Sweep farming with the result store: interrupt, resume, query — free.

A 20-scenario Decay-vs-RLNC sweep runs against a content-addressed
:class:`repro.ResultStore`. We simulate a crash halfway through (the
process "dies" after half the batch), then resume: every scenario that
already finished is a cache hit — one SQLite read, byte-identical to a
fresh run — and only the missing half computes. Finally the
Decay-vs-RLNC gap table comes straight out of the store, without
re-running anything.

The same flow from the shell::

    repro sweep --algorithms decay,rlnc_decay --topology path --n 48 \\
        --fault-model receiver --p 0.3 --seeds 0:10 \\
        --store farm.db --resume
    repro store farm.db

Run with::

    python examples/sweep_farm.py
"""

import tempfile
import time
from collections import defaultdict
from pathlib import Path

from repro import FaultConfig, ResultStore, Scenario, run_batch
from repro.runner import expand_grid


def main() -> None:
    base = Scenario(
        algorithm="decay",
        topology="path",
        topology_params={"n": 48, "seed": 0},
        faults=FaultConfig.receiver(0.3),
    )
    scenarios = expand_grid(
        base, seeds=range(10), grid={"algorithm": ["decay", "rlnc_decay"]}
    )
    store_path = str(Path(tempfile.mkdtemp(prefix="sweep-farm-")) / "farm.db")
    print(f"{len(scenarios)}-scenario sweep against {store_path}\n")

    # -- first attempt: "killed" halfway through ----------------------------
    half = scenarios[: len(scenarios) // 2]
    with ResultStore(store_path) as store:
        start = time.perf_counter()
        run_batch(half, store=store)
        print(
            f"attempt 1: computed {len(half)}/{len(scenarios)} scenarios in "
            f"{time.perf_counter() - start:.2f}s — then the process died"
        )

    # -- resume: a fresh process, the full sweep, half of it cached ---------
    with ResultStore(store_path) as store:
        already = sum(s.cache_key() in store for s in scenarios)
        start = time.perf_counter()
        reports = run_batch(scenarios, store=store)
        elapsed = time.perf_counter() - start
        print(
            f"attempt 2: {already} cache hits, "
            f"{len(scenarios) - already} fresh runs, {elapsed:.2f}s"
        )

        # a third pass is pure replay: every scenario is one SQLite read
        start = time.perf_counter()
        replay = run_batch(scenarios, store=store)
        print(
            f"attempt 3: fully cached replay in "
            f"{time.perf_counter() - start:.3f}s"
        )
        assert [r.to_json(canonical=True) for r in replay] == [
            r.to_json(canonical=True) for r in reports
        ]

        # -- the Decay-vs-RLNC gap table, served from the store -------------
        # rlnc_decay delivers k messages per run, so compare rounds per
        # delivered message — the coding throughput gap the paper is about
        print("\nmean rounds per delivered message (straight from the store):")
        per_message = defaultdict(list)
        for algorithm in ("decay", "rlnc_decay"):
            for report in store.query(algorithm=algorithm):
                messages = report.extras.get("k", 1)
                per_message[algorithm].append(report.rounds / messages)
        for algorithm, values in sorted(per_message.items()):
            mean = sum(values) / len(values)
            print(f"  {algorithm:<12} {mean:>8.1f}  ({len(values)} runs)")
        decay = sum(per_message["decay"]) / len(per_message["decay"])
        rlnc = sum(per_message["rlnc_decay"]) / len(per_message["rlnc_decay"])
        print(
            "\nRLNC-vs-Decay rounds-per-message ratio on the noisy path: "
            f"{rlnc / decay:.2f}x (k=4 coded messages amortize the pipeline "
            "only on longer schedules)"
        )


if __name__ == "__main__":
    main()
