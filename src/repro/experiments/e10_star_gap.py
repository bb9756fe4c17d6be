"""E10 (Theorem 17): the star's receiver-fault coding gap is Θ(log n)."""

from __future__ import annotations

import math

from repro.core.faults import FaultConfig
from repro.experiments.common import register
from repro.runner import Scenario, run_batch
from repro.util.rng import RandomSource
from repro.util.stats import median
from repro.util.tables import Table


@register(
    "E10",
    "Star coding gap (receiver faults)",
    "Theorem 17: the star topology exhibits a Θ(log n) coding gap with "
    "adaptive routing and receiver faults",
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
        ["n_leaves", "k", "gap", "log2_n_over_2", "gap_over_shape"],
        title=f"E10: star coding gap at p={p} vs the Θ(log n) shape",
    )
    for n_leaves in leaf_counts:
        # the gap's stream spawns one stream per arm, and each arm's
        # stream one seed per trial
        gap_rng = rng.spawn()
        medians = []
        for algorithm in ("star_coding", "star_routing"):
            arm_rng = gap_rng.spawn()
            reports = run_batch(
                Scenario(
                    algorithm,
                    topology="star",
                    topology_params={"n": n_leaves + 1},
                    params={"k": k},
                    faults=FaultConfig.receiver(p),
                    seed=arm_rng.spawn().seed,
                )
                for _ in range(trials)
            )
            medians.append(median([report.rounds for report in reports]))
        coding, routing = medians
        # a ratio of throughputs (k / median rounds); the shorter
        # routing / coding rounds to a different last float digit
        gap = (k / coding) / (k / routing)
        # at p = 1/2 routing pays ~log2(n) rounds/message, coding ~2
        shape = math.log2(n_leaves) / 2.0
        table.add_row(n_leaves, k, gap, shape, gap / shape)
    return table
