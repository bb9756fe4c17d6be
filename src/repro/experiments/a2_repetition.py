"""A2 (ablation): naive repetition baselines vs Robust FASTBC.

Section 4.1 discusses two straw-men before Robust FASTBC: repeat every
FASTBC round Θ(log n) times (safe but O(D log n) — no better than Decay)
or Θ(log log n) times (O(D log log n + polylog)). This ablation runs both
against plain and Robust FASTBC under faults.
"""

from __future__ import annotations

from repro.algorithms.repetition import repeat_factor_log, repeat_factor_loglog
from repro.core.faults import FaultConfig
from repro.experiments.common import register
from repro.runner import Scenario, run_batch
from repro.util.rng import RandomSource
from repro.util.stats import mean
from repro.util.tables import Table


@register(
    "A2",
    "Ablation: repetition baselines for fault-robust FASTBC",
    "Repeating rounds x log n is safe but slow; x log log n is the cheap "
    "middle; Robust FASTBC's blocks beat both asymptotically",
)
def run(scale: str, seed: int) -> Table:
    p = 0.5
    if scale == "smoke":
        sizes = [96]
        trials = 2
    else:
        sizes = [128, 256, 512]
        trials = 3

    rng = RandomSource(seed)
    faults = FaultConfig.receiver(p)
    table = Table(
        ["n", "variant", "rounds", "per_hop"],
        title=f"A2: FASTBC fault-robustness variants on a path (p={p})",
    )
    for n in sizes:
        loglog, log = repeat_factor_loglog(n), repeat_factor_log(n)
        variants = [
            ("plain", "fastbc", {}),
            ("repeat-loglog", "repeated_fastbc", {"repeat": loglog}),
            ("repeat-log", "repeated_fastbc", {"repeat": log}),
            ("robust", "robust_fastbc", {}),
        ]
        for name, algorithm, params in variants:
            rounds = []
            for report in run_batch(
                Scenario(
                    algorithm,
                    topology="path",
                    topology_params={"n": n},
                    params=params,
                    faults=faults,
                    seed=rng.spawn().seed,
                )
                for _ in range(trials)
            ):
                if not report.success:
                    raise AssertionError(f"{name} timed out on path-{n}")
                rounds.append(report.rounds)
            table.add_row(n, name, mean(rounds), mean(rounds) / (n - 1))
    return table
