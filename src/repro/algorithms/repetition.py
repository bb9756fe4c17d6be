"""Naive repetition baselines for fault-robust FASTBC (Section 4.1).

The paper discusses two straw-man fixes before introducing Robust FASTBC:

* repeat every FASTBC round ``Θ(log n)`` times — drives per-transmission
  failure to ``1/poly(n)`` so a union bound over the run works, but costs
  ``O(D log n)`` rounds, no better than Decay;
* repeat every round ``Θ(log log n)`` times — the effective fault rate
  drops to ``1/polylog(n)``, giving ``O(D log log n + polylog n)``.

These are the A2 ablation baselines. Repetition is implemented as a round
retimer over :class:`~repro.algorithms.fastbc.FastBCProtocol`: real round
``t`` executes virtual FASTBC round ``t // repeat`` (Decay coin flips are
re-drawn per repetition, which only helps the baseline).
"""

from __future__ import annotations

from typing import Optional

from repro.algorithms.base import (
    BroadcastOutcome,
    as_adversary,
    budget_terms,
    ilog2,
    run_broadcast,
)
from repro.algorithms.fastbc import FastBCProtocol, fastbc_schedule
from repro.algorithms.robust_fastbc import block_size
from repro.algorithms.schedule import Schedule, ScheduleLayer, node_streams
from repro.core.faults import FaultConfig
from repro.core.network import RadioNetwork
from repro.core.packets import Packet
from repro.gbst.gbst import build_gbst
from repro.gbst.ranked_bfs import RankedBFSTree
from repro.util.rng import RandomSource, spawn_rng

__all__ = [
    "RepeatedFastBCProtocol",
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


class RepeatedFastBCProtocol(FastBCProtocol):
    """FASTBC with every round repeated ``repeat`` times."""

    def __init__(
        self,
        node: int,
        tree: RankedBFSTree,
        rng: RandomSource,
        repeat: int,
        informed: bool = False,
    ) -> None:
        _check_repeat(repeat)
        super().__init__(node, tree, rng, informed=informed)
        self.repeat = repeat

    def act(self, round_index: int) -> Optional[Packet]:
        return super().act(round_index // self.repeat)


def repeated_fastbc_schedule(tree: RankedBFSTree, repeat: int) -> Schedule:
    """:class:`RepeatedFastBCProtocol`'s schedule: FASTBC's at ``r // repeat``."""
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
    adversary = as_adversary(adversary)
    source = spawn_rng(rng)
    tree = build_gbst(network).tree
    if max_rounds is None:
        log_n, depth, slowdown = budget_terms(network, faults, adversary, channel)
        max_rounds = int(60 * repeat * slowdown * (depth + log_n * log_n)) + 200
    layer = ScheduleLayer(
        repeated_fastbc_schedule(tree, repeat),
        node_streams(source, network.n),
        network.source,
    )
    return run_broadcast(
        network,
        layer,
        faults,
        source.spawn(),
        max_rounds,
        adversary=adversary,
        channel=channel,
    )
