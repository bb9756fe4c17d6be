"""Naive repetition baselines for fault-robust FASTBC (Section 4.1).

The paper discusses two straw-man fixes before introducing Robust FASTBC:

* repeat every FASTBC round ``Θ(log n)`` times — drives per-transmission
  failure to ``1/poly(n)`` so a union bound over the run works, but costs
  ``O(D log n)`` rounds, no better than Decay;
* repeat every round ``Θ(log log n)`` times — the effective fault rate
  drops to ``1/polylog(n)``, giving ``O(D log log n + polylog n)``.

These are the A2 ablation baselines. Repetition is implemented as a round
retimer over :func:`~repro.algorithms.fastbc.fastbc_schedule`: real round
``t`` executes virtual FASTBC round ``t // repeat`` (Decay coin flips are
re-drawn per repetition, which only helps the baseline).
"""

from __future__ import annotations

from typing import Optional

from repro.algorithms.base import BroadcastOutcome, ilog2, run_broadcast
from repro.algorithms.fastbc import fastbc_schedule
from repro.algorithms.robust_fastbc import block_size
from repro.algorithms.schedule import Schedule, schedule_layer
from repro.core.faults import FaultConfig
from repro.core.network import RadioNetwork
from repro.gbst.gbst import build_gbst
from repro.gbst.ranked_bfs import RankedBFSTree
from repro.util.rng import RandomSource

__all__ = [
    "repeated_fastbc_broadcast",
    "repeated_fastbc_schedule",
    "repeat_factor_log",
    "repeat_factor_loglog",
]


def repeat_factor_log(n: int) -> int:
    """The Θ(log n) repetition factor."""
    return ilog2(max(2, n)) + 1


def repeat_factor_loglog(n: int) -> int:
    """The Θ(log log n) repetition factor."""
    return block_size(n) + 1


def _check_repeat(repeat: int) -> None:
    if repeat < 1:
        raise ValueError(f"repeat must be >= 1, got {repeat}")


def repeated_fastbc_schedule(tree: RankedBFSTree, repeat: int) -> Schedule:
    """FASTBC with every round repeated ``repeat`` times: each node takes
    in round ``r`` the action FASTBC's rule gives it in round
    ``r // repeat``."""
    _check_repeat(repeat)
    fastbc = fastbc_schedule(tree)
    return lambda round_index: fastbc(round_index // repeat)


def repeated_fastbc_broadcast(
    network: RadioNetwork,
    repeat: int,
    faults: FaultConfig = FaultConfig.faultless(),
    rng: "int | RandomSource | None" = None,
    max_rounds: Optional[int] = None,
    adversary=None,
    channel=None,
) -> BroadcastOutcome:
    """Broadcast with the repetition baseline (factor ``repeat``)."""
    _check_repeat(repeat)

    def budget(log_n: int, depth: int, slowdown: float) -> int:
        return int(60 * repeat * slowdown * (depth + log_n * log_n)) + 200

    schedule = repeated_fastbc_schedule(build_gbst(network).tree, repeat)
    return run_broadcast(
        network, schedule_layer(network, schedule),
        faults, rng, max_rounds, budget, adversary=adversary, channel=channel,
    )
