"""E16 (Theorems 27-28): sender faults do not open a routing/coding gap.

The sharpest form of the paper's sender/receiver asymmetry, on one
topology: under *receiver* faults the star's routing-vs-coding gap grows
like log n (independent leaf coins leave stragglers), while under *sender*
faults the same schedules have a Θ(1) gap — a sender fault silences every
leaf at once, so routing wastes nothing coding could save. Combined with
the Lemma 25/26 transformations (E14/E15) this is why the faultless-world
gap structure of Alon et al. carries over to sender faults (Theorems
27-28) but not to receiver faults (Theorem 24).
"""

from __future__ import annotations

from repro.core.faults import FaultConfig, FaultModel
from repro.experiments.common import register
from repro.runner import Scenario, run_batch
from repro.util.rng import RandomSource
from repro.util.stats import mean
from repro.util.tables import Table


@register(
    "E16",
    "Sender vs receiver fault gap structure",
    "Theorems 27-28: with sender faults the star gap is Θ(1) while with "
    "receiver faults it is Θ(log n) — the worst case gap structure is "
    "fault-model sensitive",
)
def run(scale: str, seed: int) -> Table:
    p = 0.5
    if scale == "smoke":
        leaf_counts = [64]
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
            "model",
            "routing_rounds",
            "coding_rounds",
            "gap",
        ],
        title=f"E16: star routing/coding gap by fault model at p={p}",
    )
    for n_leaves in leaf_counts:
        for model in (FaultModel.SENDER, FaultModel.RECEIVER):
            # per trial: routing, then coding
            reports = run_batch(
                Scenario(
                    algorithm,
                    topology="star",
                    topology_params={"n": n_leaves + 1},
                    params={"k": k},
                    faults=FaultConfig(model, p),
                    seed=rng.spawn().seed,
                )
                for _ in range(trials)
                for algorithm in ("star_routing", "star_coding")
            )
            if not all(report.success for report in reports):
                raise AssertionError(
                    f"star schedule timed out at n={n_leaves} ({model})"
                )
            routing_rounds = [report.rounds for report in reports[0::2]]
            coding_rounds = [report.rounds for report in reports[1::2]]
            table.add_row(
                n_leaves,
                str(model),
                mean(routing_rounds),
                mean(coding_rounds),
                mean(routing_rounds) / mean(coding_rounds),
            )
    return table
