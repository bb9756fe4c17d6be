"""E3 (Lemma 8): faultless FASTBC is diameter-linear: D + O(log^2 n)."""

from __future__ import annotations

from repro.analysis.predictions import fastbc_faultless_rounds
from repro.experiments.common import register
from repro.runner import Scenario, run_batch
from repro.util.rng import RandomSource
from repro.util.stats import mean
from repro.util.tables import Table


@register(
    "E3",
    "Faultless FASTBC diameter linearity",
    "Lemma 8: FASTBC broadcasts in D + O(log^2 n) rounds, beating Decay's "
    "D log n on deep networks",
)
def run(scale: str, seed: int) -> Table:
    if scale == "smoke":
        depths = [48, 96]
        trials = 2
    else:
        depths = [64, 128, 256, 512, 1024]
        trials = 5

    rng = RandomSource(seed)
    table = Table(
        [
            "topology",
            "n",
            "D",
            "fastbc_rounds",
            "decay_rounds",
            "predicted",
            "fastbc_over_D",
        ],
        title="E3: faultless FASTBC vs Decay on deep topologies",
    )
    for depth in depths:
        for topo_name in ("path", "caterpillar"):
            # per trial: FASTBC, then Decay
            scenarios = [
                Scenario(
                    algorithm,
                    topology=topo_name,
                    topology_params={"n": depth},
                    seed=rng.spawn().seed,
                )
                for _ in range(trials)
                for algorithm in ("fastbc", "decay")
            ]
            network = scenarios[0].build_network()
            reports = run_batch(scenarios)
            if not all(report.success for report in reports):
                raise AssertionError(f"faultless timeout on {network.name}")
            fastbc_rounds = [report.rounds for report in reports[0::2]]
            decay_rounds_ = [report.rounds for report in reports[1::2]]
            d = network.source_eccentricity
            table.add_row(
                topo_name,
                network.n,
                d,
                mean(fastbc_rounds),
                mean(decay_rounds_),
                fastbc_faultless_rounds(network.n, d),
                mean(fastbc_rounds) / d,
            )
    return table
