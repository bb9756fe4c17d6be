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
    MESSAGE,
    BroadcastOutcome,
    as_adversary,
    budget_terms,
    ilog2,
    run_broadcast,
)
from repro.algorithms.fastbc import FastBCProtocol
from repro.algorithms.schedule import (
    Schedule,
    ScheduleLayer,
    node_streams,
    wave_schedule,
)
from repro.core.faults import FaultConfig
from repro.core.network import RadioNetwork
from repro.core.packets import Packet
from repro.gbst.gbst import build_gbst
from repro.gbst.ranked_bfs import RankedBFSTree
from repro.util.rng import RandomSource, spawn_rng

__all__ = [
    "RobustFastBCProtocol",
    "robust_fastbc_broadcast",
    "robust_fastbc_schedule",
    "block_size",
    "check_block_wave",
    "make_robust_fastbc_protocols",
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


class RobustFastBCProtocol(FastBCProtocol):
    """Per-node Robust FASTBC over a shared GBST.

    Inherits FASTBC's GBST fields, Decay phase length and schedule period
    (the Lemma 7 bound ``ceil(log2 n)``, matching the paper's
    ``Θ(log n)`` treatment of the inter-wave wait); its ``act`` differs
    from FASTBC's only in the even-round block wave.

    Parameters
    ----------
    node, tree, rng, informed, decay_interleave:
        As in :class:`~repro.algorithms.fastbc.FastBCProtocol`.
    block:
        Block size S; defaults to :func:`block_size` of n. Exposed for the
        A1 ablation (S = 1 recovers plain-FASTBC-like fragility, large S
        over-waits).
    round_multiplier:
        The constant c: a block broadcasts for c·S consecutive even rounds.
    """

    def __init__(
        self,
        node: int,
        tree: RankedBFSTree,
        rng: RandomSource,
        informed: bool = False,
        block: Optional[int] = None,
        round_multiplier: int = DEFAULT_ROUND_MULTIPLIER,
        decay_interleave: bool = True,
    ) -> None:
        if round_multiplier < 1:
            raise ValueError(
                f"round_multiplier must be >= 1, got {round_multiplier}"
            )
        super().__init__(
            node, tree, rng, informed=informed, decay_interleave=decay_interleave
        )
        self.block = block if block is not None else block_size(tree.network.n)
        if self.block < 1:
            raise ValueError(f"block size must be >= 1, got {self.block}")
        self.round_multiplier = round_multiplier

    def act(self, round_index: int) -> Optional[Packet]:
        if not self.informed:
            return None
        if round_index % 2 == 1:
            # odd: standard Decay step on all informed nodes (optional for
            # wave-isolation experiments, as in FastBCProtocol)
            if not self.decay_interleave:
                return None
            i = ((round_index - 1) // 2) % self.phase_length
            if self.rng.bernoulli(2.0 ** (-i)):
                return MESSAGE
            return None
        # even: block wave on the fast set. t indexes even rounds; within
        # its superround, the node at level l fires on every t = l (mod 3),
        # so the wave crosses one hop per even round when transmissions
        # succeed and retries a hop every 3 even rounds after a fault.
        if not self.is_fast:
            return None
        t = round_index // 2
        s = self.block
        superround_length = self.round_multiplier * s
        modulus = 6 * self.max_rank
        target = (self.level // s - 6 * self.rank) % modulus
        current = (t // superround_length) % modulus
        if current != target:
            return None
        if self.level % 3 != t % 3:
            return None
        return MESSAGE


def robust_fastbc_schedule(
    tree: RankedBFSTree,
    block: Optional[int] = None,
    round_multiplier: int = DEFAULT_ROUND_MULTIPLIER,
    decay_interleave: bool = True,
) -> Schedule:
    """:class:`RobustFastBCProtocol`'s schedule over a shared GBST.

    Even round 2t fires the bucket keyed by the active superround
    ``(t // c·S) mod 6·r_max`` and ``t mod 3``: the fast nodes with
    ``(level // S - 6·rank) mod 6·r_max`` and ``level mod 3`` equal to
    those. Rejects ``block`` and ``round_multiplier`` as the protocol
    does, before any bucket is built.
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


def make_robust_fastbc_protocols(
    network: RadioNetwork,
    rng: RandomSource,
    block: Optional[int] = None,
    round_multiplier: int = DEFAULT_ROUND_MULTIPLIER,
    decay_interleave: bool = True,
) -> list[RobustFastBCProtocol]:
    """Build one Robust FASTBC protocol per node over the network's GBST."""
    tree = build_gbst(network).tree
    return [
        RobustFastBCProtocol(
            v,
            tree,
            rng.spawn(),
            informed=(v == network.source),
            block=block,
            round_multiplier=round_multiplier,
            decay_interleave=decay_interleave,
        )
        for v in network.nodes()
    ]


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
