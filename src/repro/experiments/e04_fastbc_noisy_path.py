"""E4 (Lemma 10): noisy FASTBC on a path costs Θ(p/(1-p) D log n + D/(1-p)).

The Lemma 10 recurrence models the *wave* mechanism: a dropped hop stalls
the message for a full Θ(log n) wave period. We measure the isolated wave
(``decay_interleave=False``) so the per-hop cost tracks the recurrence
directly, then report the full algorithm alongside for context.
"""

from __future__ import annotations

from repro.analysis.predictions import fastbc_noisy_path_rounds
from repro.core.faults import FaultConfig
from repro.experiments.common import register
from repro.runner import Scenario, run_batch
from repro.util.rng import RandomSource
from repro.util.stats import mean
from repro.util.tables import Table


@register(
    "E4",
    "FASTBC degradation under faults (path)",
    "Lemma 10: noisy FASTBC on a path needs Θ(p/(1-p) D log n + D/(1-p)) "
    "rounds — per-hop cost grows linearly in p/(1-p) log n",
)
def run(scale: str, seed: int) -> Table:
    if scale == "smoke":
        sizes = [64, 128]
        probabilities = [0.0, 0.5]
        trials = 2
    else:
        sizes = [64, 128, 256, 512]
        probabilities = [0.0, 0.2, 0.3, 0.5, 0.6]
        trials = 4

    rng = RandomSource(seed)
    table = Table(
        [
            "n",
            "p",
            "wave_rounds",
            "wave_per_hop",
            "full_rounds",
            "predicted",
            "wave_over_predicted",
        ],
        title="E4: noisy FASTBC per-hop cost vs Lemma 10's recurrence",
    )
    for n in sizes:
        for p in probabilities:
            faults = (
                FaultConfig.faultless() if p == 0.0 else FaultConfig.receiver(p)
            )
            # per trial: the isolated wave, then the full algorithm
            reports = run_batch(
                Scenario(
                    "fastbc",
                    topology="path",
                    topology_params={"n": n},
                    params=params,
                    faults=faults,
                    seed=rng.spawn().seed,
                )
                for _ in range(trials)
                for params in ({"decay_interleave": False}, {})
            )
            if not all(report.success for report in reports):
                raise AssertionError(f"FASTBC timed out on path-{n} at p={p}")
            wave_rounds = [report.rounds for report in reports[0::2]]
            full_rounds = [report.rounds for report in reports[1::2]]
            predicted = fastbc_noisy_path_rounds(n, n - 1, p)
            wave_mean = mean(wave_rounds)
            table.add_row(
                n,
                p,
                wave_mean,
                wave_mean / (n - 1),
                mean(full_rounds),
                predicted,
                wave_mean / predicted,
            )
    return table
