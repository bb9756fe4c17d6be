"""E9 (Lemma 16): star Reed-Solomon coding needs only Θ(k) rounds."""

from __future__ import annotations

from repro.analysis.predictions import star_coding_rounds
from repro.core.faults import FaultConfig
from repro.experiments.common import register
from repro.runner import Scenario, run_batch
from repro.util.rng import RandomSource
from repro.util.stats import mean
from repro.util.tables import Table


@register(
    "E9",
    "Star Reed-Solomon coding throughput (receiver faults)",
    "Lemma 16: RS coding on the star needs Θ(k) rounds — throughput Θ(1); "
    "per-message cost flat in n",
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
        ["n_leaves", "k", "rounds", "rounds_per_msg", "predicted", "ratio"],
        title=f"E9: star RS coding at p={p} — per-message cost flat in n",
    )
    for n_leaves in leaf_counts:
        rounds = []
        for report in run_batch(
            Scenario(
                "star_coding",
                topology="star",
                topology_params={"n": n_leaves + 1},
                params={"k": k},
                faults=FaultConfig.receiver(p),
                seed=rng.spawn().seed,
            )
            for _ in range(trials)
        ):
            if not report.success:
                raise AssertionError(f"star coding timed out at n={n_leaves}")
            rounds.append(report.rounds)
        predicted = star_coding_rounds(k, p)
        table.add_row(
            n_leaves,
            k,
            mean(rounds),
            mean(rounds) / k,
            predicted,
            mean(rounds) / predicted,
        )
    return table
