"""E17 (Lemma 29): single-link non-adaptive routing costs Θ(k log k)."""

from __future__ import annotations

import math

from repro.algorithms.multi.single_link import minimal_nonadaptive_repetitions
from repro.core.faults import FaultConfig
from repro.experiments.common import register
from repro.runner import Scenario, run_batch
from repro.util.rng import RandomSource
from repro.util.tables import Table


@register(
    "E17",
    "Single-link non-adaptive routing",
    "Lemma 29: non-adaptive routing on a single link needs Θ(k log k) "
    "rounds for failure probability <= 1/k",
)
def run(scale: str, seed: int) -> Table:
    p = 0.5
    if scale == "smoke":
        ks = [16, 256]
        trials = 10
    else:
        ks = [16, 64, 256, 1024, 4096]
        trials = 40

    rng = RandomSource(seed)
    table = Table(
        [
            "k",
            "repetitions",
            "rounds",
            "rounds_per_msg",
            "log2_k",
            "success_rate",
        ],
        title=f"E17: single-link non-adaptive routing at p={p} — "
        "rounds/message ~ log k",
    )
    for k in ks:
        repetitions = minimal_nonadaptive_repetitions(k, p)
        reports = run_batch(
            Scenario(
                "single_link_nonadaptive",
                topology="single_link",
                params={"k": k},
                faults=FaultConfig.receiver(p),
                seed=rng.spawn().seed,
            )
            for _ in range(trials)
        )
        successes = sum(report.success for report in reports)
        rounds = reports[-1].rounds  # deterministic given k and p
        table.add_row(
            k,
            repetitions,
            rounds,
            rounds / k,
            math.log2(k),
            successes / trials,
        )
    return table
