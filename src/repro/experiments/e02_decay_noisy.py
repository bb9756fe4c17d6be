"""E2 (Lemma 9): Decay tolerates faults with a 1/(1-p) slowdown."""

from __future__ import annotations

from repro.core.faults import FaultConfig, FaultModel
from repro.experiments.common import register
from repro.runner import Scenario, run_batch
from repro.util.rng import RandomSource
from repro.util.stats import mean
from repro.util.tables import Table


@register(
    "E2",
    "Decay robustness under sender/receiver faults",
    "Lemma 9: noisy Decay needs O(log n/(1-p) (D + log n)) rounds — the "
    "same algorithm, a 1/(1-p) slowdown",
)
def run(scale: str, seed: int) -> Table:
    if scale == "smoke":
        n = 48
        probabilities = [0.0, 0.5]
        models = [FaultModel.RECEIVER]
        families = ["path"]
        trials = 2
    else:
        n = 192
        probabilities = [0.0, 0.1, 0.3, 0.5, 0.7]
        models = [FaultModel.SENDER, FaultModel.RECEIVER]
        families = ["path", "star", "gnp"]
        trials = 5

    rng = RandomSource(seed)
    table = Table(
        [
            "family",
            "model",
            "p",
            "rounds",
            "slowdown",
            "predicted_slowdown",
            "success_rate",
        ],
        title="E2: noisy Decay slowdown vs the Lemma 9 prediction 1/(1-p)",
    )
    for family in families:
        baseline = None
        for model in models:
            for p in probabilities:
                faults = (
                    FaultConfig.faultless()
                    if p == 0.0
                    else FaultConfig(model, p)
                )
                reports = run_batch(
                    Scenario(
                        "decay",
                        topology=family,
                        topology_params={"n": n, "seed": seed},
                        faults=faults,
                        seed=rng.spawn().seed,
                    )
                    for _ in range(trials)
                )
                successes = sum(report.success for report in reports)
                measured = mean([report.rounds for report in reports])
                if p == 0.0:
                    baseline = measured
                slowdown = measured / baseline if baseline else 1.0
                table.add_row(
                    family,
                    str(model),
                    p,
                    measured,
                    slowdown,
                    1.0 / (1.0 - p),
                    successes / trials,
                )
    return table
