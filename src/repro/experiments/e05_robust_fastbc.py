"""E5 (Theorem 11): Robust FASTBC stays diameter-linear under faults.

The comparison isolates the wave mechanism (``decay_interleave=False``):
plain FASTBC's per-hop cost grows with log n (a dropped hop waits out a
full wave period), while Robust FASTBC's blocks absorb drops with local
retries and its per-hop cost is flat in n. The full-algorithm columns show
the blended behaviour: at these scales the Decay half floors both at
Θ(log n)/hop, so Theorem 11's constant per-hop regime shows only in the
wave-only columns.
"""

from __future__ import annotations

from repro.core.faults import FaultConfig
from repro.experiments.common import register
from repro.runner import Scenario, run_batch
from repro.util.rng import RandomSource
from repro.util.stats import mean
from repro.util.tables import Table


@register(
    "E5",
    "Robust FASTBC diameter linearity under faults",
    "Theorem 11: Robust FASTBC needs O(D + log n log log n (log n + "
    "log 1/δ)) rounds with faults; per-hop cost flat in n vs plain "
    "FASTBC's Θ(log n)",
)
def run(scale: str, seed: int) -> Table:
    p = 0.5
    if scale == "smoke":
        sizes = [96, 192]
        trials = 2
    else:
        sizes = [96, 192, 384, 768]
        trials = 4

    rng = RandomSource(seed)
    faults = FaultConfig.receiver(p)
    table = Table(
        [
            "n",
            "plain_wave_per_hop",
            "robust_wave_per_hop",
            "plain_full",
            "robust_full",
            "decay_full",
        ],
        title=f"E5: per-hop wave cost at p={p} — plain grows, robust flat",
    )
    wave_only = {"decay_interleave": False}
    arms = [
        ("fastbc", wave_only),
        ("robust_fastbc", wave_only),
        ("fastbc", {}),
        ("robust_fastbc", {}),
        ("decay", {}),
    ]
    for n in sizes:
        # per trial, all five arms in order
        reports = run_batch(
            Scenario(
                algorithm,
                topology="path",
                topology_params={"n": n},
                params=params,
                faults=faults,
                seed=rng.spawn().seed,
            )
            for _ in range(trials)
            for algorithm, params in arms
        )
        if not all(report.success for report in reports):
            raise AssertionError(f"timeout on path-{n} at p={p}")
        plain_wave, robust_wave, plain_full, robust_full, decay_full = (
            [report.rounds for report in reports[arm :: len(arms)]]
            for arm in range(len(arms))
        )
        hops = n - 1
        table.add_row(
            n,
            mean(plain_wave) / hops,
            mean(robust_wave) / hops,
            mean(plain_full),
            mean(robust_full),
            mean(decay_full),
        )
    return table
