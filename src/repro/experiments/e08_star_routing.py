"""E8 (Lemma 15): star adaptive routing needs Θ(k log n) rounds."""

from __future__ import annotations

import math

from repro.analysis.predictions import star_routing_rounds
from repro.core.faults import FaultConfig
from repro.experiments.common import register
from repro.runner import Scenario, run_batch
from repro.util.rng import RandomSource
from repro.util.stats import mean
from repro.util.tables import Table


@register(
    "E8",
    "Star adaptive routing throughput (receiver faults)",
    "Lemma 15: adaptive routing on the star needs Θ(k log n) rounds — "
    "throughput Θ(1/log n)",
)
def run(scale: str, seed: int) -> Table:
    p = 0.5
    if scale == "smoke":
        leaf_counts = [16, 64]
        k = 16
        trials = 2
    else:
        leaf_counts = [16, 64, 256, 1024]
        k = 64
        trials = 5

    rng = RandomSource(seed)
    table = Table(
        [
            "n_leaves",
            "k",
            "rounds",
            "rounds_per_msg",
            "log2_n",
            "predicted",
            "ratio",
        ],
        title=f"E8: star adaptive routing at p={p} — per-message cost ~ log n",
    )
    for n_leaves in leaf_counts:
        rounds = []
        for report in run_batch(
            Scenario(
                "star_routing",
                topology="star",
                topology_params={"n": n_leaves + 1},
                params={"k": k},
                faults=FaultConfig.receiver(p),
                seed=rng.spawn().seed,
            )
            for _ in range(trials)
        ):
            if not report.success:
                raise AssertionError(f"star routing timed out at n={n_leaves}")
            rounds.append(report.rounds)
        predicted = star_routing_rounds(n_leaves, k, p)
        table.add_row(
            n_leaves,
            k,
            mean(rounds),
            mean(rounds) / k,
            math.log2(n_leaves),
            predicted,
            mean(rounds) / predicted,
        )
    return table
