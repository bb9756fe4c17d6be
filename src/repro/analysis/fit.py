"""Scaling-law fitting: fitted exponents and ``D + c*log^k n`` models.

The paper's statements are asymptotic shapes — uncoded broadcast pays a
multiplicative ``Θ(log n)``-type overhead that network-coded gossip
avoids — so E-series experiments should report *fitted* complexity, not
raw tables. Two model families are fit against rounds-vs-n curves:

* a power law ``y = C * n^a`` via log-log least squares (the empirical
  polynomial degree, :func:`loglog_slope`);
* the paper's additive family ``y = D + c * log^k n`` for
  ``k = 0..max_k`` via linear least squares,

and compared with AIC on the common linear-space residuals, so "does a
``D + log^2 n`` shape beat a ``D + log n`` shape" is a model-selection
statement instead of an eyeball.

:func:`fit_scaling` works on plain (x, y) arrays;
:func:`fit` streams a store or report iterable, collapses it to mean
metric per (group, n) through :mod:`repro.analysis.aggregate`, and emits
one canonical :class:`AnalysisReport` row per group.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Mapping, Optional, Sequence

import numpy as np

from repro.analysis.aggregate import Source, aggregate
from repro.analysis.report import AnalysisReport

__all__ = [
    "fit",
    "fit_scaling",
    "fit_power_law",
    "fit_polylog",
    "linear_fit",
    "loglog_slope",
]

_RSS_FLOOR = 1e-12


def linear_fit(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    """Least-squares fit ``y = slope * x + intercept``."""
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} xs vs {len(ys)} ys")
    if len(xs) < 2:
        raise ValueError("need at least two points to fit a line")
    slope, intercept = np.polyfit(np.asarray(xs, float), np.asarray(ys, float), 1)
    return float(slope), float(intercept)


def loglog_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Slope of log y against log x — the empirical polynomial degree."""
    if any(x <= 0 for x in xs) or any(y <= 0 for y in ys):
        raise ValueError("loglog_slope requires positive data")
    slope, _ = linear_fit(
        [math.log(x) for x in xs], [math.log(y) for y in ys]
    )
    return slope


def _aic(rss: float, points: int, parameters: int) -> float:
    """Akaike information criterion under gaussian residuals."""
    return points * math.log(max(rss, _RSS_FLOOR) / points) + 2.0 * parameters


def _r2(ys: np.ndarray, residuals: np.ndarray) -> float:
    total = float(np.sum((ys - ys.mean()) ** 2))
    if total <= 0.0:
        return 1.0
    return 1.0 - float(np.sum(residuals**2)) / total


def fit_power_law(
    xs: Sequence[float], ys: Sequence[float]
) -> dict[str, Any]:
    """Fit ``y = C * x^a`` by log-log least squares.

    Returns the fitted ``exponent`` (a), ``coefficient`` (C), linear-space
    ``rss``/``aic`` (comparable with :func:`fit_polylog` models), and the
    log-space ``r2``.
    """
    xs_arr = np.asarray(xs, dtype=float)
    ys_arr = np.asarray(ys, dtype=float)
    if xs_arr.size != ys_arr.size:
        raise ValueError(f"length mismatch: {xs_arr.size} xs vs {ys_arr.size} ys")
    if xs_arr.size < 3:
        raise ValueError("need at least three points to fit a scaling law")
    if np.any(xs_arr <= 0) or np.any(ys_arr <= 0):
        raise ValueError("power-law fitting requires positive data")
    slope, intercept = linear_fit(np.log(xs_arr), np.log(ys_arr))
    predicted = math.e**intercept * xs_arr**slope
    residuals = ys_arr - predicted
    log_residuals = np.log(ys_arr) - (intercept + slope * np.log(xs_arr))
    rss = float(np.sum(residuals**2))
    return {
        "model": "power_law",
        "exponent": float(slope),
        "coefficient": float(math.e**intercept),
        "rss": rss,
        "aic": _aic(rss, xs_arr.size, 2),
        "r2_log": _r2(np.log(ys_arr), log_residuals),
    }


def fit_polylog(
    xs: Sequence[float], ys: Sequence[float], max_k: int = 3
) -> list[dict[str, Any]]:
    """Fit ``y = D + c * log^k x`` for every ``k`` in ``0..max_k``.

    ``k = 0`` is the constant model (``y = D``). Returns one model dict
    per ``k`` with linear-space ``rss``/``aic``/``r2``, in ``k`` order.
    """
    xs_arr = np.asarray(xs, dtype=float)
    ys_arr = np.asarray(ys, dtype=float)
    if xs_arr.size != ys_arr.size:
        raise ValueError(f"length mismatch: {xs_arr.size} xs vs {ys_arr.size} ys")
    if xs_arr.size < 3:
        raise ValueError("need at least three points to fit a scaling law")
    if np.any(xs_arr <= 1):
        raise ValueError("polylog fitting requires x > 1")
    if max_k < 0:
        raise ValueError(f"max_k must be >= 0, got {max_k}")
    logs = np.log2(xs_arr)
    models = []
    for k in range(max_k + 1):
        if k == 0:
            d = float(ys_arr.mean())
            c = 0.0
            predicted = np.full_like(ys_arr, d)
            parameters = 1
        else:
            design = np.column_stack([np.ones_like(logs), logs**k])
            (d, c), *_ = np.linalg.lstsq(design, ys_arr, rcond=None)
            predicted = d + c * logs**k
            parameters = 2
        residuals = ys_arr - predicted
        rss = float(np.sum(residuals**2))
        models.append(
            {
                "model": f"D+c*log^{k}(n)" if k else "constant",
                "k": k,
                "D": float(d),
                "c": float(c),
                "rss": rss,
                "aic": _aic(rss, xs_arr.size, parameters),
                "r2": _r2(ys_arr, residuals),
            }
        )
    return models


def fit_scaling(
    xs: Sequence[float], ys: Sequence[float], max_k: int = 3
) -> dict[str, Any]:
    """Fit the power law and every polylog model; pick the AIC winner.

    Returns ``{"power_law": ..., "models": [...], "best": <model dict>}``
    where ``models`` holds the polylog family and ``best`` minimizes AIC
    across all candidates (power law included).
    """
    power = fit_power_law(xs, ys)
    models = fit_polylog(xs, ys, max_k=max_k)
    best = min(models + [power], key=lambda m: m["aic"])
    return {"power_law": power, "models": models, "best": best}


def fit(
    source: Source,
    by: Sequence[str] = ("algorithm",),
    x: str = "n",
    metric: str = "rounds",
    max_k: int = 3,
    filters: Optional[Mapping[str, Any]] = None,
    seed: int = 0,
) -> AnalysisReport:
    """Fit metric-vs-``x`` scaling per group -> :class:`AnalysisReport`.

    Streams ``source`` once (see :func:`repro.analysis.aggregate.aggregate`),
    collapses to the mean metric per (group, x), and fits
    :func:`fit_scaling` on each group's curve. Groups with fewer than
    three distinct ``x`` values are reported with ``points`` only (no
    fit), not dropped — silent truncation would read as "fitted".
    """
    by = tuple(by)
    if x in by:
        raise ValueError(f"x dimension {x!r} cannot also be a group dimension")
    collapsed = aggregate(
        source,
        by=by + (x,),
        metric=metric,
        percentiles=(50.0,),
        resamples=1,
        seed=seed,
        filters=filters,
    )
    curves: dict[tuple, list[tuple[float, float]]] = {}
    for row in collapsed.rows:
        key = tuple(row[dimension] for dimension in by)
        curves.setdefault(key, []).append((float(row[x]), float(row["mean"])))

    columns = list(by) + [
        "points",
        "exponent",
        "coefficient",
        "r2_log",
        "best_model",
        "best_aic",
        "models",
    ]
    rows = []
    for key in sorted(curves, key=lambda k: tuple(str(v) for v in k)):
        points = sorted(curves[key])
        row: dict[str, Any] = dict(zip(by, key))
        row["points"] = len(points)
        if len(points) < 3:
            row.update(
                exponent=None, coefficient=None, r2_log=None,
                best_model=None, best_aic=None, models=[],
            )
        else:
            xs_arr = [p for p, _ in points]
            ys_arr = [value for _, value in points]
            result = fit_scaling(xs_arr, ys_arr, max_k=max_k)
            power = result["power_law"]
            row.update(
                exponent=power["exponent"],
                coefficient=power["coefficient"],
                r2_log=power["r2_log"],
                best_model=result["best"]["model"],
                best_aic=result["best"]["aic"],
                models=[
                    {"model": m["model"], "aic": m["aic"], "r2": m["r2"]}
                    for m in result["models"]
                ],
            )
        rows.append(row)

    return AnalysisReport(
        kind="fit",
        params={
            "by": list(by),
            "x": x,
            "metric": metric,
            "max_k": max_k,
            "seed": seed,
            "filters": dict(filters or {}),
        },
        columns=columns,
        rows=rows,
        summary={
            "title": f"fit {metric} vs {x} by {'/'.join(by)}",
            "groups": len(rows),
            "rows_scanned": collapsed.summary["rows_scanned"],
        },
    )
