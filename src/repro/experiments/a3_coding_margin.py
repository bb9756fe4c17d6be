"""A3 (ablation): the Chernoff margin in fixed-length coding schedules.

Lemma 16's schedule sends ``100k + 100 log n`` coded packets — the
``log n`` term is the Chernoff/union-bound margin that covers the slowest
leaf. This ablation fixes the schedule length at ``k/(1-p) + c·log n/(1-p)``
for several margin constants c and measures the success rate: with c = 0 a
constant fraction of runs leaves some leaf short; modest c drives failures
below 1/k.
"""

from __future__ import annotations

import math

from repro.algorithms.multi.star import star_rs_coding
from repro.experiments.common import register
from repro.util.rng import RandomSource
from repro.util.tables import Table


@register(
    "A3",
    "Ablation: coding schedule length margin",
    "Fixed-length coded broadcasts need a Θ(log n) packet margin beyond "
    "k/(1-p) to cover the slowest leaf (the Lemma 16 constants)",
)
def run(scale: str, seed: int) -> Table:
    p = 0.5
    if scale == "smoke":
        n_leaves, k = 64, 16
        margins = [0.0, 2.0]
        trials = 10
    else:
        n_leaves, k = 256, 32
        margins = [0.0, 0.5, 1.0, 2.0, 4.0]
        trials = 60

    rng = RandomSource(seed)
    log_n = math.log2(n_leaves)
    table = Table(
        ["margin_c", "length", "success_rate", "target_rate"],
        title=f"A3: fixed-length star coding success vs margin "
        f"(n={n_leaves}, k={k}, p={p})",
    )
    for c in margins:
        length = math.ceil((k + c * log_n) / (1.0 - p))
        # a run stops once every leaf holds k packets, so a budget of
        # ``length`` rounds is the fixed-length schedule's verdict
        successes = sum(
            star_rs_coding(n_leaves, k, p, rng=rng, max_rounds=length).success
            for _ in range(trials)
        )
        table.add_row(c, length, successes / trials, 1.0 - 1.0 / k)
    return table
