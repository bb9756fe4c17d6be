"""E18 (Lemmas 30, 32): single-link coding and adaptive routing are Θ(k)."""

from __future__ import annotations

from repro.core.faults import FaultConfig
from repro.experiments.common import register
from repro.runner import Scenario, run_batch
from repro.util.rng import RandomSource
from repro.util.stats import mean
from repro.util.tables import Table


@register(
    "E18",
    "Single-link coding and adaptive routing",
    "Lemmas 30/32: both coding and adaptive routing finish in Θ(k) rounds "
    "(~ k/(1-p)) on the single link",
)
def run(scale: str, seed: int) -> Table:
    p = 0.5
    if scale == "smoke":
        ks = [64, 512]
        trials = 5
    else:
        ks = [64, 256, 1024, 4096]
        trials = 20

    rng = RandomSource(seed)
    table = Table(
        [
            "k",
            "adaptive_rounds",
            "coding_rounds",
            "adaptive_per_msg",
            "coding_per_msg",
            "expected_per_msg",
        ],
        title=f"E18: single-link Θ(k) schedules at p={p} — "
        "per-message cost flat in k",
    )
    for k in ks:
        # per trial: adaptive routing, then coding
        reports = run_batch(
            Scenario(
                algorithm,
                topology="single_link",
                params={"k": k},
                faults=FaultConfig.receiver(p),
                seed=rng.spawn().seed,
            )
            for _ in range(trials)
            for algorithm in ("single_link_routing", "single_link_coding")
        )
        if not all(report.success for report in reports):
            raise AssertionError(f"single-link schedule failed at k={k}")
        adaptive_rounds = [report.rounds for report in reports[0::2]]
        coding_rounds = [report.rounds for report in reports[1::2]]
        table.add_row(
            k,
            mean(adaptive_rounds),
            mean(coding_rounds),
            mean(adaptive_rounds) / k,
            mean(coding_rounds) / k,
            1.0 / (1.0 - p),
        )
    return table
