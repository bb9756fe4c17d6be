"""Execute scenarios: single runs, batches, and parallel sweeps.

:func:`run` is the one entry point every workload goes through; it looks
the algorithm up in the registry, materializes the topology, drives the
run, and wraps the normalized outcome in a :class:`RunReport`.

:func:`run_batch` fans a list of scenarios out across a
``multiprocessing`` pool. Scenarios are self-contained and seeded, so
results are independent of worker scheduling — parallel batches return
exactly what a serial loop would (order-preserving ``pool.map``), which
the test suite checks byte-for-byte.

:func:`sweep` expands a base scenario over a seed grid and/or a
parameter grid (Cartesian product) and runs the batch.

Both accept a ``store`` (a :class:`~repro.store.ResultStore`): fresh
reports are recorded, and with ``reuse=True`` scenarios whose cache key
is already present skip execution entirely — the stored canonical report
is returned instead, byte-identical to a fresh run by the determinism
contract. That is what makes ``repro sweep --store PATH --resume``
restart an interrupted thousand-scenario sweep for free.
"""

from __future__ import annotations

import contextlib
import itertools
import multiprocessing
import time
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Optional, Sequence

from repro.runner.registry import get_algorithm
from repro.runner.report import RunReport
from repro.runner.scenario import Scenario
from repro.telemetry.metrics import METRICS as _METRICS
from repro.telemetry.tracing import TRACER as _TRACER
from repro.telemetry.tracing import trace_id_for_key
from repro.timeline.artifact import Timeline
from repro.timeline.capture import capture_timeline
from repro.topologies.registry import preload

if TYPE_CHECKING:  # pragma: no cover - repro.store imports the runner
    from repro.store import ResultStore

__all__ = ["run", "run_batch", "sweep", "expand_grid"]

#: grid keys that address Scenario fields rather than algorithm params
_SCENARIO_FIELD_KEYS = frozenset(
    {
        "algorithm",
        "topology",
        "faults",
        "adversary",
        "max_rounds",
        "channel",
        "channel_params",
    }
)

_M_RUNS = _METRICS.counter("repro_runner_runs_total", "scenarios executed")
_M_RUN_SECONDS = _METRICS.histogram(
    "repro_runner_run_seconds", "single-scenario wall time"
)


def run(scenario: Scenario) -> RunReport:
    """Run one scenario to completion and report it.

    When the scenario carries a ``timeline`` config, the run executes
    inside an armed :func:`~repro.timeline.capture.capture_timeline`
    context: the run driver (:func:`repro.algorithms.base.run_broadcast`)
    hands the simulator's channel a flight recorder as a round observer,
    and the frozen :class:`~repro.timeline.Timeline` artifact is attached
    to the report (outside its canonical bytes). Recording only reads
    each round's result — the simulated outcome is unchanged, which the
    timeline test suite checks byte-for-byte.
    """
    algorithm = get_algorithm(scenario.algorithm)
    network = scenario.build_network()
    timeline_payload: "dict | None" = None
    capturing = (
        capture_timeline(scenario.timeline)
        if scenario.timeline is not None
        else contextlib.nullcontext()
    )
    start = time.perf_counter()
    with capturing as capture:
        result = algorithm.run(
            network,
            scenario.faults,
            scenario.seed,
            max_rounds=scenario.max_rounds,
            params=scenario.params,
            adversary=scenario.adversary,
            channel=scenario.channel_config(),
        )
    if capture is not None and capture.recorder is not None:
        timeline_payload = Timeline.from_recorder(capture.recorder).to_dict()
    elapsed = time.perf_counter() - start
    key = scenario.cache_key()
    if _METRICS.enabled:
        _M_RUNS.inc()
        _M_RUN_SECONDS.observe(elapsed)
    if _TRACER.enabled:
        _TRACER.record_span(
            "runner.run",
            trace_id_for_key(key),
            elapsed,
            algorithm=scenario.algorithm,
            n=network.n,
            seed=scenario.seed,
            rounds=result.rounds,
            success=result.success,
        )
    return RunReport(
        scenario=scenario.to_dict(),
        algorithm=scenario.algorithm,
        success=result.success,
        rounds=result.rounds,
        informed=result.informed,
        total=result.total,
        counters=result.counters,
        extras=result.extras,
        network_n=network.n,
        network_name=network.name,
        wall_time_s=elapsed,
        cache_key=key,
        timeline=timeline_payload,
    )


def _execute(batch: Sequence[Scenario], processes: Optional[int]) -> list[RunReport]:
    """Map :func:`run` over ``batch``, with a pool only when it pays.

    The pool is skipped entirely when one worker (or fewer scenarios than
    two) is requested — pool creation is pure overhead for serial work,
    and after a cache filter most resumed sweeps are exactly that.
    """
    if processes is None or processes <= 1 or len(batch) <= 1:
        return [run(scenario) for scenario in batch]
    with fork_pool(batch, processes) as pool:
        return pool.map(run, batch)


def fork_pool(
    scenarios: Sequence[Scenario], processes: int
) -> "multiprocessing.pool.Pool":
    """A pool of ``min(processes, len(scenarios))`` workers to run
    ``scenarios`` on.

    Fork shares the imported library with the workers, so what building
    the scenarios' topologies imports (networkx, for ``gnp`` and
    ``tree``) is loaded first; where fork does not exist the pool falls
    back to the platform default.
    """
    preload(scenario.topology for scenario in scenarios)
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork" if "fork" in methods else None)
    return context.Pool(min(processes, len(scenarios)))


def run_batch(
    scenarios: Iterable[Scenario],
    processes: Optional[int] = None,
    store: "Optional[ResultStore]" = None,
    reuse: bool = True,
) -> list[RunReport]:
    """Run scenarios, optionally across a process pool and a result store.

    ``processes=None`` (or ``<= 1``) runs serially; otherwise a pool of
    that many workers maps :func:`run` over the scenarios that actually
    execute. Results come back in input order either way, and — because
    each scenario carries its own seed — with identical contents.

    With a ``store``, fresh reports are recorded under their scenario
    cache keys, and when ``reuse`` is true (the default) scenarios whose
    key is already stored skip execution: the stored canonical report is
    returned in their place, byte-identical to what a fresh run would
    produce. ``reuse=False`` recomputes everything and refreshes the
    store. Every scenario has a cache key, so every fresh report is
    stored.
    """
    batch = list(scenarios)
    reports: list[Optional[RunReport]] = [None] * len(batch)
    pending: list[int] = []
    if store is not None and reuse:
        for index, scenario in enumerate(batch):
            cached = store.get(scenario.cache_key())
            if cached is not None:
                reports[index] = cached
            else:
                pending.append(index)
    else:
        pending = list(range(len(batch)))

    fresh = _execute([batch[index] for index in pending], processes)
    if store is not None and fresh:
        store.put_many(fresh, replace=not reuse)
    for index, report in zip(pending, fresh):
        reports[index] = report
    return reports  # type: ignore[return-value]  # every slot is filled


def expand_grid(
    base: Scenario,
    seeds: Optional[Iterable[int]] = None,
    grid: Optional[Mapping[str, Sequence[Any]]] = None,
) -> list[Scenario]:
    """Expand ``base`` over a seed list and a parameter grid.

    Grid keys address, in order of precedence: the Scenario fields
    ``algorithm``, ``topology``, ``faults``, ``adversary``,
    ``max_rounds``, ``channel``, ``channel_params``; the topology
    size ``n`` (merged into ``topology_params``); anything else is an
    algorithm parameter (merged into ``params``). The expansion is the
    Cartesian product of all grid axes, with seeds varying fastest, in a
    deterministic order.
    """
    seed_list = [base.seed] if seeds is None else [int(s) for s in seeds]
    if not seed_list:
        raise ValueError("seeds must be non-empty")
    grid = dict(grid or {})
    if "seed" in grid:
        raise ValueError("vary seeds via the `seeds` argument, not the grid")

    keys = list(grid)
    scenarios: list[Scenario] = []
    for combo in itertools.product(*(grid[key] for key in keys)):
        changes: dict[str, Any] = {}
        params = dict(base.params)
        topology_params = dict(base.topology_params)
        for key, value in zip(keys, combo):
            if key in _SCENARIO_FIELD_KEYS:
                changes[key] = value
            elif key == "n":
                topology_params["n"] = value
            else:
                params[key] = value
        changes["params"] = params
        changes["topology_params"] = topology_params
        for seed in seed_list:
            scenarios.append(base.with_(seed=seed, **changes))
    return scenarios


def sweep(
    base: Scenario,
    seeds: Optional[Iterable[int]] = None,
    grid: Optional[Mapping[str, Sequence[Any]]] = None,
    processes: Optional[int] = None,
    store: "Optional[ResultStore]" = None,
    reuse: bool = True,
) -> list[RunReport]:
    """Expand ``base`` (see :func:`expand_grid`) and run the batch."""
    return run_batch(
        expand_grid(base, seeds=seeds, grid=grid),
        processes=processes,
        store=store,
        reuse=reuse,
    )
