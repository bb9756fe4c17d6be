"""E6 (Lemma 12): RLNC-Decay broadcasts k messages at throughput Ω(1/log n)."""

from __future__ import annotations

from repro.algorithms.base import ilog2
from repro.core.faults import FaultConfig
from repro.experiments.common import register
from repro.runner import Scenario, run_batch
from repro.util.rng import RandomSource
from repro.util.stats import mean
from repro.util.tables import Table


@register(
    "E6",
    "RLNC-Decay multi-message throughput",
    "Lemma 12: Decay + RLNC broadcasts k messages in O(D log n + k log n "
    "+ log^2 n) rounds — Ω(1/log n) messages per round",
)
def run(scale: str, seed: int) -> Table:
    p = 0.3
    if scale == "smoke":
        cases = [("star", 24), ("path", 16)]
        ks = [4, 8]
        trials = 2
    else:
        cases = [("star", 64), ("path", 48), ("grid", 49)]
        ks = [4, 8, 16, 32]
        trials = 3

    rng = RandomSource(seed)
    table = Table(
        [
            "family",
            "n",
            "k",
            "rounds",
            "rounds_per_msg",
            "log_n",
            "per_msg_over_logn",
        ],
        title="E6: RLNC-Decay rounds per message vs log n (receiver faults)",
    )
    for family, n in cases:
        for k in ks:
            reports = run_batch(
                Scenario(
                    "rlnc_decay",
                    topology=family,
                    topology_params={"n": n, "seed": seed},
                    params={"k": k},
                    faults=FaultConfig.receiver(p),
                    seed=rng.spawn().seed,
                )
                for _ in range(trials)
            )
            rounds = []
            for report in reports:
                if not report.success:
                    raise AssertionError(
                        f"RLNC-Decay timed out on {report.network_name} k={k}"
                    )
                rounds.append(report.rounds)
            network_n = reports[0].network_n
            log_n = ilog2(network_n) + 1
            per_msg = mean(rounds) / k
            table.add_row(
                family, network_n, k, mean(rounds), per_msg, log_n,
                per_msg / log_n,
            )
    return table
