"""Shared utilities: seeded RNG management, statistics, tables, validation."""

from repro.util.rng import RandomSource, StreamBank, spawn_rng
from repro.util.stats import (
    Summary,
    geometric_tail,
    mean,
    median,
    percentile,
    stddev,
    summarize,
)
from repro.util.tables import Table
from repro.util.validation import (
    check_fraction,
    check_non_negative,
    check_positive,
    check_probability,
    check_type,
)

__all__ = [
    "RandomSource",
    "StreamBank",
    "spawn_rng",
    "Summary",
    "Table",
    "check_fraction",
    "check_non_negative",
    "check_positive",
    "check_probability",
    "check_type",
    "geometric_tail",
    "mean",
    "median",
    "percentile",
    "stddev",
    "summarize",
]
