"""E7 (Lemma 13): RLNC over Robust FASTBC — throughput Ω(1/(log n loglog n))."""

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
    "E7",
    "RLNC-Robust-FASTBC multi-message throughput",
    "Lemma 13: Robust FASTBC + RLNC broadcasts k messages in O(D + "
    "k log n log log n + log^2 n log log n) rounds",
)
def run(scale: str, seed: int) -> Table:
    p = 0.3
    if scale == "smoke":
        sizes = [16]
        ks = [4]
        trials = 2
    else:
        sizes = [32, 64, 128]
        ks = [4, 8, 16]
        trials = 3

    rng = RandomSource(seed)
    table = Table(
        [
            "n",
            "k",
            "robust_rounds",
            "decay_rounds",
            "robust_per_msg",
            "bound_shape",
        ],
        title="E7: RLNC-Robust-FASTBC vs RLNC-Decay on deep paths "
        f"(receiver faults, p={p})",
    )
    for n in sizes:
        for k in ks:
            # per trial: RLNC-Robust-FASTBC, then RLNC-Decay
            reports = run_batch(
                Scenario(
                    algorithm,
                    topology="path",
                    topology_params={"n": n},
                    params={"k": k},
                    faults=FaultConfig.receiver(p),
                    seed=rng.spawn().seed,
                )
                for _ in range(trials)
                for algorithm in ("rlnc_robust_fastbc", "rlnc_decay")
            )
            if not all(report.success for report in reports):
                raise AssertionError(f"timeout at n={n} k={k}")
            robust_rounds = [report.rounds for report in reports[0::2]]
            decay_rounds = [report.rounds for report in reports[1::2]]
            log_n = ilog2(n) + 1
            shape = (n - 1) + k * log_n * block_size(n)
            table.add_row(
                n,
                k,
                mean(robust_rounds),
                mean(decay_rounds),
                mean(robust_rounds) / k,
                shape,
            )
    return table
