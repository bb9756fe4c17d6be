"""Adaptive sequential experiment design over the result store.

:func:`adaptive_sweep` answers the ROADMAP question "which scenarios are
worth running?": instead of a fixed seeds-per-cell grid, it runs seed
batches per grid cell until every cell's seeded-bootstrap confidence
interval for the metric mean is tighter than ``target_halfwidth``,
always spending the next batch on the **widest** unconverged cell. Cells
whose noise is already characterized stop consuming compute; noisy cells
(bursty adversaries, fault probabilities near the percolation knee) get
the extra seeds.

Every seed batch runs through one ``execute`` hook, by default
:func:`repro.runner.run_batch` with the store threaded in
(``reuse=True``); the service passes a hook that submits the batch to
its job queue instead. Either way the design is **resumable for free**:
seeds per cell are allocated ``0, 1, 2, ...`` deterministically, every
decision is a pure function of the (deterministic) run results, and a
rerun against the same store replays the identical allocation from cache
— byte-identical canonical :class:`AnalysisReport`, zero new scenario
executions. That invariant is what the CI kill/restart check asserts.
"""

from __future__ import annotations

import itertools
import time
from typing import Any, Callable, Mapping, Optional, Sequence

from repro.analysis.aggregate import METRICS, group_seed, rows_from_reports
from repro.analysis.report import AnalysisReport
from repro.runner import RunReport, Scenario, expand_grid, run_batch
from repro.store.store import ResultStore
from repro.util.stats import bootstrap_ci, mean

__all__ = ["adaptive_sweep"]


def _cell_label(keys: Sequence[str], combo: Sequence[Any]) -> dict[str, Any]:
    """One grid combination as a JSON-friendly mapping."""
    label = {}
    for key, value in zip(keys, combo):
        label[key] = value.to_dict() if hasattr(value, "to_dict") else value
    return label


class _Cell:
    """One grid cell's scenarios-so-far and metric values."""

    __slots__ = ("scenario", "label", "values", "halfwidth", "converged")

    def __init__(self, scenario: Scenario, label: dict[str, Any]) -> None:
        self.scenario = scenario
        self.label = label
        self.values: list[float] = []
        self.halfwidth = float("inf")
        self.converged = False


def adaptive_sweep(
    base: Scenario,
    grid: Optional[Mapping[str, Sequence[Any]]] = None,
    target_halfwidth: float = 1.0,
    max_seeds: int = 64,
    batch: int = 4,
    metric: str = "rounds",
    confidence: float = 0.95,
    resamples: int = 1000,
    seed: int = 0,
    seed_start: int = 0,
    store: Optional[ResultStore] = None,
    processes: Optional[int] = None,
    execute: Optional[Callable[[list[Scenario]], list[RunReport]]] = None,
) -> AnalysisReport:
    """Run seed batches per grid cell until every CI is tight enough.

    Parameters
    ----------
    base, grid:
        The scenario grid, exactly as :func:`repro.runner.expand_grid`
        understands it (minus seeds, which this function allocates).
    target_halfwidth:
        Stop refining a cell once the bootstrap CI for the metric mean is
        within ``±target_halfwidth``.
    max_seeds:
        Hard per-cell seed budget; an unconverged cell at the budget is
        reported with ``converged=False``, never silently dropped.
    batch:
        Seeds per refinement step (also the initial allocation).
    store:
        A :class:`~repro.store.ResultStore`; strongly recommended — with
        it the sweep is resumable and a rerun executes nothing.
    execute:
        Runs one seed batch and returns its reports in order (default:
        ``run_batch(scenarios, processes=processes, store=store,
        reuse=True)``). The service's hook submits each batch as a job
        to its queue, waits for it, and counts progress. Reports must
        land in ``store`` for ``meta`` to count executions.

    Returns a canonical :class:`AnalysisReport` (kind ``adaptive``) with
    one row per cell; ``meta`` records wall time and how many scenarios
    actually executed vs. were served from the store.
    """
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; allowed: {METRICS}")
    if target_halfwidth <= 0.0:
        raise ValueError(
            f"target_halfwidth must be > 0, got {target_halfwidth}"
        )
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    if max_seeds < batch:
        raise ValueError(
            f"max_seeds ({max_seeds}) must be >= batch ({batch})"
        )

    grid = dict(grid or {})
    keys = list(grid)
    combos = list(itertools.product(*(grid[key] for key in keys)))
    # expand_grid iterates the same itertools.product order (seeds vary
    # fastest), so one placeholder seed yields exactly one scenario per
    # combo, in combo order
    cell_scenarios = expand_grid(base, seeds=[0], grid=grid)
    assert len(cell_scenarios) == len(combos)
    cells = [
        _Cell(scenario, _cell_label(keys, combo))
        for scenario, combo in zip(cell_scenarios, combos)
    ]

    if execute is None:
        def execute(scenarios: list[Scenario]) -> list[RunReport]:
            return run_batch(
                scenarios, processes=processes, store=store, reuse=True
            )

    start = time.perf_counter()
    stored_before = len(store) if store is not None else 0
    total_runs = 0

    def extend(cell: _Cell, count: int) -> None:
        nonlocal total_runs
        first = seed_start + len(cell.values)
        scenarios = [
            cell.scenario.with_(seed=s) for s in range(first, first + count)
        ]
        cell.values.extend(
            row[metric] for row in rows_from_reports(execute(scenarios))
        )
        total_runs += count

    def refresh(cell: _Cell) -> None:
        low, high = bootstrap_ci(
            cell.values,
            confidence=confidence,
            resamples=resamples,
            seed=group_seed(
                seed, (sorted(cell.label.items()), len(cell.values)),
                salt=metric,
            ),
        )
        cell.halfwidth = (high - low) / 2.0
        cell.converged = cell.halfwidth <= target_halfwidth

    for cell in cells:
        extend(cell, batch)
        refresh(cell)

    while True:
        open_cells = [
            cell
            for cell in cells
            if not cell.converged and len(cell.values) < max_seeds
        ]
        if not open_cells:
            break
        # widest CI first; ties broken by grid order for determinism
        widest = max(
            open_cells,
            key=lambda cell: (cell.halfwidth, -cells.index(cell)),
        )
        extend(widest, min(batch, max_seeds - len(widest.values)))
        refresh(widest)

    executed = (len(store) - stored_before) if store is not None else total_runs
    columns = ["cell", "seeds", "mean", "ci_low", "ci_high", "halfwidth", "converged"]
    rows = []
    for cell in cells:
        low, high = bootstrap_ci(
            cell.values,
            confidence=confidence,
            resamples=resamples,
            seed=group_seed(
                seed, (sorted(cell.label.items()), len(cell.values)),
                salt=metric,
            ),
        )
        rows.append(
            {
                "cell": cell.label,
                "seeds": len(cell.values),
                "mean": mean(cell.values),
                "ci_low": low,
                "ci_high": high,
                "halfwidth": (high - low) / 2.0,
                "converged": cell.converged,
            }
        )

    converged = sum(1 for cell in cells if cell.converged)
    return AnalysisReport(
        kind="adaptive",
        params={
            "base": base.to_dict(),
            "grid": {
                key: [
                    value.to_dict() if hasattr(value, "to_dict") else value
                    for value in values
                ]
                for key, values in grid.items()
            },
            "metric": metric,
            "target_halfwidth": target_halfwidth,
            "max_seeds": max_seeds,
            "batch": batch,
            "confidence": confidence,
            "resamples": resamples,
            "seed": seed,
            "seed_start": seed_start,
        },
        columns=columns,
        rows=rows,
        summary={
            "title": (
                f"adaptive sweep: {len(cells)} cells to ±{target_halfwidth:g} "
                f"{metric} ({converged} converged)"
            ),
            "cells": len(cells),
            "converged": converged,
            "total_runs": total_runs,
        },
        meta={
            "wall_time_s": time.perf_counter() - start,
            "executed": executed,
            "served_from_store": total_runs - executed if store is not None else 0,
            "store_path": store.path if store is not None else "",
        },
    )
