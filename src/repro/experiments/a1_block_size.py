"""A1 (ablation): Robust FASTBC's block size S = Θ(log log n).

The design choice Theorem 11 pivots on: blocks of S = Θ(log log n) levels.
S = 1 recovers plain-FASTBC fragility (every fault stalls the wave for a
full period); very large S wastes superround time (a block broadcasts for
c·S even rounds whether or not the message needs them) and raises the
chance of falling inactive mid-block. The sweet spot is the paper's
log log n.
"""

from __future__ import annotations

from repro.algorithms.base import ilog2
from repro.algorithms.robust_fastbc import block_size
from repro.core.faults import FaultConfig
from repro.experiments.common import register
from repro.runner import Scenario, run_batch
from repro.util.rng import RandomSource
from repro.util.stats import mean
from repro.util.tables import Table


@register(
    "A1",
    "Ablation: Robust FASTBC block size",
    "S = Θ(log log n) balances fault absorption (S > 1) against "
    "superround overhead (S << log n)",
)
def run(scale: str, seed: int) -> Table:
    p = 0.5
    if scale == "smoke":
        sizes = [128]
        trials = 2
    else:
        sizes = [256, 512]
        trials = 4

    rng = RandomSource(seed)
    table = Table(
        ["n", "S", "S_label", "rounds", "per_hop"],
        title=f"A1: wave-only Robust FASTBC per-hop cost vs block size "
        f"(p={p})",
    )
    for n in sizes:
        paper_s = block_size(n)
        candidates = [
            (1, "1 (fragile)"),
            (paper_s, f"{paper_s} (paper: loglog n)"),
            (max(2, ilog2(n)), f"{max(2, ilog2(n))} (log n)"),
        ]
        for s, label in candidates:
            rounds = []
            for report in run_batch(
                Scenario(
                    "robust_fastbc",
                    topology="path",
                    topology_params={"n": n},
                    params={"block": s, "decay_interleave": False},
                    faults=FaultConfig.receiver(p),
                    seed=rng.spawn().seed,
                )
                for _ in range(trials)
            ):
                if not report.success:
                    raise AssertionError(
                        f"Robust FASTBC (S={s}) timed out on path-{n}"
                    )
                rounds.append(report.rounds)
            table.add_row(n, s, label, mean(rounds), mean(rounds) / (n - 1))
    return table
