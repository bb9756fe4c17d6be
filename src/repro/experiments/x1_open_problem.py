"""X1 (exploration): the paper's open problem — O(D + k log n + polylog).

Section 4.2 closes with: *"We leave as an open problem the existence of an
algorithm that is robust to sender and receiver faults and can broadcast k
messages in O(D + k log n + poly log(n))"*. The dense-wave RLNC candidate
(:func:`repro.algorithms.multi.rlnc_broadcast.rlnc_dense_wave_broadcast`)
removes Robust FASTBC's superround gating so coded generations pipeline at
full rate. This experiment measures it against the paper's two proven
algorithms on deep paths (where the D-vs-k trade-off is sharpest) and on
trees/grids (where same-level interference is the candidate's risk).

This is an exploration, not a claim: a measurement of where a natural
candidate stands, recorded so future work has a baseline.
"""

from __future__ import annotations

from repro.algorithms.base import ilog2
from repro.core.faults import FaultConfig, FaultModel
from repro.experiments.common import register
from repro.runner import Scenario, run_batch
from repro.util.rng import RandomSource
from repro.util.stats import mean
from repro.util.tables import Table


@register(
    "X1",
    "Open problem: dense-wave RLNC candidate",
    "Exploration of the paper's open O(D + k log n + polylog n) question: "
    "a full-rate pipelined wave pattern vs Lemmas 12-13 on deep topologies",
)
def run(scale: str, seed: int) -> Table:
    p = 0.3
    if scale == "smoke":
        cases = [("path", 48)]
        ks = [8]
        models = [FaultModel.RECEIVER]
        trials = 2
    else:
        cases = [("path", 64), ("tree", 63), ("grid", 64)]
        ks = [8, 16]
        models = [FaultModel.RECEIVER, FaultModel.SENDER]
        trials = 2

    rng = RandomSource(seed)
    table = Table(
        [
            "family",
            "n",
            "model",
            "k",
            "dense_wave",
            "rlnc_robust",
            "rlnc_decay",
            "dense_per_msg",
            "open_problem_shape",
        ],
        title=f"X1: dense-wave RLNC vs the paper's algorithms (p={p})",
    )
    arms = ("rlnc_dense_wave", "rlnc_robust_fastbc", "rlnc_decay")
    for family, n in cases:
        for model in models:
            faults = FaultConfig(model, p)
            for k in ks:
                # per trial, the three arms in order
                scenarios = [
                    Scenario(
                        algorithm,
                        topology=family,
                        topology_params={"n": n, "seed": seed},
                        params={"k": k},
                        faults=faults,
                        seed=rng.spawn().seed,
                    )
                    for _ in range(trials)
                    for algorithm in arms
                ]
                network = scenarios[0].build_network()
                reports = run_batch(scenarios)
                if not all(report.success for report in reports):
                    raise AssertionError(
                        f"timeout on {network.name} {model} k={k}"
                    )
                dense, robust, decay = (
                    [report.rounds for report in reports[arm :: len(arms)]]
                    for arm in range(len(arms))
                )
                depth = network.source_eccentricity
                log_n = ilog2(network.n) + 1
                shape = depth + k * log_n
                table.add_row(
                    family,
                    network.n,
                    str(model),
                    k,
                    mean(dense),
                    mean(robust),
                    mean(decay),
                    mean(dense) / k,
                    shape,
                )
    return table
