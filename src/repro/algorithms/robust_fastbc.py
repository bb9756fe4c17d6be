"""Robust FASTBC: the paper's new fault-tolerant diameter-linear algorithm.

Section 4.1 / Theorem 11. As in FASTBC, odd rounds run Decay. Even rounds
run the *block wave*: each fast stretch is partitioned into blocks of
``S = Θ(log log n)`` consecutive levels, and a block broadcasts for
``c·S`` consecutive even rounds (its *superround*) before the wave hands
over to the next block. Within an active block, the node at level ``l``
broadcasts in even round ``t`` iff ``l ≡ t (mod 3)`` — the mod-3 spacing
prevents collisions between consecutive BFS levels.

Formally (paper, "Formal Robust FASTBC Algorithm"): at even round ``t``, a
fast-set node at level ``l`` with rank ``r`` broadcasts iff

    floor(l / S) - 6r  ≡  floor((t/2) / (cS))   (mod 6 r_max)
    and  l ≡ t (mod 3).

The point of blocks: a single dropped transmission in plain FASTBC stalls
the wave for Θ(log n) rounds (Lemma 10); here a message only goes
*inactive* if it fails to cross a whole block — probability
``1/polylog(n)`` for suitable ``c`` — so the expected number of
Θ(log n·log log n)-round stalls is o(1) per stretch, and the total time is
``O(D + log n·log log n·(log n + log 1/δ))`` with faults (Theorem 11).
"""

from __future__ import annotations

import math
from typing import Optional

from repro.algorithms.base import (
    BroadcastOutcome,
    as_adversary,
    budget_terms,
    ilog2,
    run_broadcast,
)
from repro.algorithms.schedule import (
    Schedule,
    ScheduleLayer,
    node_streams,
    wave_schedule,
)
from repro.core.faults import FaultConfig
from repro.core.network import RadioNetwork
from repro.gbst.gbst import build_gbst
from repro.gbst.ranked_bfs import RankedBFSTree
from repro.util.rng import RandomSource, spawn_rng

__all__ = [
    "robust_fastbc_broadcast",
    "robust_fastbc_schedule",
    "block_size",
    "check_block_wave",
]

#: default round multiplier c ("sufficiently large constant"); sized so a
#: block crossing fails with probability well below 1/log^3 n at p <= 1/2
DEFAULT_ROUND_MULTIPLIER = 15


def block_size(n: int) -> int:
    """The paper's S = Θ(log log n) block size (>= 1)."""
    log_n = max(2.0, math.log2(max(2, n)))
    return max(1, math.ceil(math.log2(log_n)))


def check_block_wave(
    n: int, block: Optional[int], round_multiplier: int
) -> int:
    """The block size S on ``n`` nodes, after rejecting a
    ``round_multiplier`` or a ``block`` below 1."""
    if round_multiplier < 1:
        raise ValueError(f"round_multiplier must be >= 1, got {round_multiplier}")
    s = block if block is not None else block_size(n)
    if s < 1:
        raise ValueError(f"block size must be >= 1, got {s}")
    return s


def robust_fastbc_schedule(
    tree: RankedBFSTree,
    block: Optional[int] = None,
    round_multiplier: int = DEFAULT_ROUND_MULTIPLIER,
    decay_interleave: bool = True,
) -> Schedule:
    """Robust FASTBC's schedule over a shared GBST.

    Each node's rule, once informed: odd rounds take FASTBC's Decay step
    (:func:`~repro.algorithms.fastbc.fastbc_schedule`, with the same
    ``decay_interleave`` switch). In even round 2t a fast node at level
    ``l`` with rank ``r`` broadcasts iff its block's superround is the
    active one, ``(l // S - 6r) ≡ (t // c·S) (mod 6·r_max)``, and
    ``l ≡ t (mod 3)``: within its superround it fires on every third
    even round, so the wave crosses one hop per even round when
    transmissions succeed and retries a hop every 3 even rounds after a
    fault. ``S`` is ``block`` (default :func:`block_size` of n, exposed
    for the A1 ablation), ``c`` is ``round_multiplier`` and ``r_max``
    FASTBC's bound ``ceil(log2 n)``. So even round 2t fires one bucket,
    keyed by the active superround and ``t mod 3``.

    Rejects ``block`` and ``round_multiplier`` below 1 before any bucket
    is built.
    """
    n = tree.network.n
    s = check_block_wave(n, block, round_multiplier)
    superround_length = round_multiplier * s
    modulus = 6 * max(1, ilog2(n))
    buckets: list[list[int]] = [[] for _ in range(3 * modulus)]
    for v in tree.fast_nodes():
        level = tree.level[v]
        target = (level // s - 6 * tree.rank[v]) % modulus
        buckets[3 * target + level % 3].append(v)
    return wave_schedule(
        n,
        decay_interleave,
        lambda t: buckets[3 * ((t // superround_length) % modulus) + t % 3],
    )


def robust_fastbc_broadcast(
    network: RadioNetwork,
    faults: FaultConfig = FaultConfig.faultless(),
    rng: "int | RandomSource | None" = None,
    max_rounds: Optional[int] = None,
    block: Optional[int] = None,
    round_multiplier: int = DEFAULT_ROUND_MULTIPLIER,
    decay_interleave: bool = True,
    adversary=None,
    channel=None,
) -> BroadcastOutcome:
    """Broadcast one message from the source with Robust FASTBC."""
    check_block_wave(network.n, block, round_multiplier)
    adversary = as_adversary(adversary)
    source = spawn_rng(rng)
    if max_rounds is None:
        log_n, depth, slowdown = budget_terms(network, faults, adversary, channel)
        log_log_n = block_size(network.n)
        max_rounds = (
            int(
                slowdown
                * (
                    40 * depth
                    + 60 * round_multiplier * log_n * log_log_n * log_n
                )
            )
            + 200
        )
        if not decay_interleave:
            max_rounds *= 4
    layer = ScheduleLayer(
        robust_fastbc_schedule(
            build_gbst(network).tree, block, round_multiplier, decay_interleave
        ),
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
