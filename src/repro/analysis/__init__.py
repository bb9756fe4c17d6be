"""Statistics and experiment design over runs, stores, and theory.

Two halves live here. The theory side (bounds, closed-form predictions)
predates the result store. The store-native side —
:mod:`~repro.analysis.aggregate` (streaming group-by with Wilson and
bootstrap intervals), :mod:`~repro.analysis.fit` (line and log-log
slopes, scaling-law fitting with AIC model comparison),
:mod:`~repro.analysis.compare` (paired sign-test/bootstrap certification
of algorithm gaps), and :mod:`~repro.analysis.design` (adaptive
sequential sweeps that spend seeds where the confidence intervals are
widest) — consumes the thousands of canonical reports a
:class:`~repro.store.ResultStore` accumulates and emits
content-addressed :class:`AnalysisReport` records.
The CLI surface is ``repro analyze aggregate|fit|compare|adaptive``; the
service surface is ``GET /analysis`` and adaptive ``POST /jobs``.
"""

from repro.analysis.aggregate import aggregate, rows_from_reports
from repro.analysis.compare import compare, sign_test
from repro.analysis.design import adaptive_sweep
from repro.analysis.fit import (
    fit,
    fit_polylog,
    fit_power_law,
    fit_scaling,
    linear_fit,
    loglog_slope,
)
from repro.analysis.report import ANALYSIS_SCHEMA, AnalysisReport
from repro.analysis.bounds import (
    chernoff_binomial_lower_tail,
    chernoff_binomial_upper_tail,
    chernoff_geometric_sum_tail,
    union_bound,
)
from repro.analysis.predictions import (
    decay_rounds,
    fastbc_faultless_rounds,
    fastbc_noisy_path_rounds,
    robust_fastbc_rounds,
    single_link_adaptive_rounds,
    single_link_coding_rounds,
    single_link_nonadaptive_rounds,
    star_coding_rounds,
    star_routing_rounds,
    wct_coding_rounds,
    wct_routing_rounds,
)

__all__ = [
    "ANALYSIS_SCHEMA",
    "AnalysisReport",
    "adaptive_sweep",
    "aggregate",
    "compare",
    "fit",
    "fit_polylog",
    "fit_power_law",
    "fit_scaling",
    "rows_from_reports",
    "sign_test",
    "chernoff_binomial_lower_tail",
    "chernoff_binomial_upper_tail",
    "chernoff_geometric_sum_tail",
    "decay_rounds",
    "fastbc_faultless_rounds",
    "fastbc_noisy_path_rounds",
    "linear_fit",
    "loglog_slope",
    "robust_fastbc_rounds",
    "single_link_adaptive_rounds",
    "single_link_coding_rounds",
    "single_link_nonadaptive_rounds",
    "star_coding_rounds",
    "star_routing_rounds",
    "union_bound",
    "wct_coding_rounds",
    "wct_routing_rounds",
]
