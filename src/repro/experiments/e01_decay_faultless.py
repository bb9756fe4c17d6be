"""E1 (Lemma 6): faultless Decay completes in O(D log n + log^2 n) rounds."""

from __future__ import annotations

from repro.analysis.predictions import decay_rounds
from repro.experiments.common import register
from repro.runner import Scenario, run_batch
from repro.util.rng import RandomSource
from repro.util.stats import mean
from repro.util.tables import Table


@register(
    "E1",
    "Faultless Decay round complexity",
    "Lemma 6: Decay spreads one message in O(D log n + log^2 n) rounds",
)
def run(scale: str, seed: int) -> Table:
    if scale == "smoke":
        sizes = [32, 64]
        families = ["path", "star"]
        trials = 2
    else:
        sizes = [64, 128, 256, 512, 1024]
        families = ["path", "star", "grid", "gnp"]
        trials = 5

    rng = RandomSource(seed)
    table = Table(
        ["family", "n", "D", "rounds", "predicted", "ratio"],
        title="E1: faultless Decay vs the Lemma 6 shape D log n + log^2 n",
    )
    for family in families:
        for n in sizes:
            scenarios = [
                Scenario(
                    "decay",
                    topology=family,
                    topology_params={"n": n, "seed": seed},
                    seed=rng.spawn().seed,
                )
                for _ in range(trials)
            ]
            network = scenarios[0].build_network()
            rounds = []
            for report in run_batch(scenarios):
                if not report.success:
                    raise AssertionError(
                        f"faultless Decay timed out on {network.name}"
                    )
                rounds.append(report.rounds)
            depth = network.source_eccentricity
            predicted = decay_rounds(network.n, depth)
            measured = mean(rounds)
            table.add_row(
                family,
                network.n,
                depth,
                measured,
                predicted,
                measured / predicted,
            )
    return table
