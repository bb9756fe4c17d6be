"""E19 (Lemmas 31, 33): single-link gaps — Θ(log k) non-adaptive, Θ(1)
adaptive."""

from __future__ import annotations

import math

from repro.core.faults import FaultConfig
from repro.experiments.common import register
from repro.runner import Scenario, run_batch
from repro.util.rng import RandomSource
from repro.util.stats import median
from repro.util.tables import Table


@register(
    "E19",
    "Single-link coding gaps",
    "Lemma 31: Θ(log k) gap vs non-adaptive routing; Lemma 33: Θ(1) gap "
    "vs adaptive routing — adaptivity alone closes the single-link gap",
)
def run(scale: str, seed: int) -> Table:
    p = 0.5
    if scale == "smoke":
        ks = [64, 512]
        trials = 4
    else:
        ks = [64, 256, 1024, 4096]
        trials = 10

    rng = RandomSource(seed)
    table = Table(
        [
            "k",
            "nonadaptive_gap",
            "adaptive_gap",
            "log2_k",
            "nonadaptive_gap_over_logk",
        ],
        title=f"E19: single-link gaps at p={p}",
    )
    for k in ks:
        gaps = []
        for routing_algorithm in (
            "single_link_nonadaptive",
            "single_link_routing",
        ):
            # the gap's stream spawns one stream per arm, and each arm's
            # stream one seed per trial
            gap_rng = rng.spawn()
            medians = []
            for algorithm in ("single_link_coding", routing_algorithm):
                arm_rng = gap_rng.spawn()
                reports = run_batch(
                    Scenario(
                        algorithm,
                        topology="single_link",
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
            gaps.append((k / coding) / (k / routing))
        nonadaptive_gap, adaptive_gap = gaps
        table.add_row(
            k,
            nonadaptive_gap,
            adaptive_gap,
            math.log2(k),
            nonadaptive_gap / math.log2(k),
        )
    return table
