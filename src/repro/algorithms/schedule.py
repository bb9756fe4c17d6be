"""One protocol layer for every single-message broadcast schedule.

Who broadcasts in a round of Decay (Lemmas 6 and 9), FASTBC's wave
(Lemma 8) or Robust FASTBC's block wave (Theorem 11) depends only on the
round, the node's GBST level and rank, and one private coin. A
*schedule* says who: it maps a round index to a *step*, which is either

* a coin probability ``p > 0``: every informed node broadcasts with
  probability ``p``, drawing one coin from its own stream, or with
  certainty and without a draw when ``p >= 1`` (Decay's ``i = 0``
  round); or
* a *bucket*: an ascending sequence of candidates, whose informed
  members broadcast without a draw. :data:`SILENT` is the empty bucket.

Each algorithm module writes its schedule, and the schedule's
docstring states the rule that each node follows, as the paper does. The
tests keep that rule as one object per node (``tests/per_node.py``), the
scalar reference: a :class:`ScheduleLayer` over a schedule draws exactly
the coins that those objects draw from the same streams, so every
outcome is the same.

:func:`node_streams` spawns the nodes' streams: one
:class:`~repro.util.rng.RandomSource` per node below :data:`BANK_MIN_N`
nodes, one :class:`~repro.util.rng.StreamBank` from there on. Both give
every node the same stream, so the choice is one of speed alone.
"""

from __future__ import annotations

from itertools import compress
from typing import Callable, Sequence, Union

import numpy as np

from repro.algorithms.base import ilog2
from repro.core.engine import RoundResult, node_array
from repro.util.rng import RandomSource, StreamBank

__all__ = [
    "BANK_MIN_N",
    "SILENT",
    "Schedule",
    "ScheduleLayer",
    "decay_probabilities",
    "node_streams",
    "wave_schedule",
]

#: a round's step: a coin probability, or an ascending bucket of candidates
Step = Union[float, Sequence[int]]
#: round index -> step
Schedule = Callable[[int], Step]

#: the step of a round in which nobody broadcasts
SILENT: tuple[int, ...] = ()

#: networks of at least this many nodes draw their coins from one
#: StreamBank: seeding the bank costs more than building per-node sources
#: on smaller networks, and its coin rounds save less there (crossover:
#: PERFORMANCE.md, "Stream bank")
BANK_MIN_N = 2048


def node_streams(
    source: RandomSource, n: int
) -> "list[RandomSource] | StreamBank":
    """The next ``n`` children of ``source``, one private stream per node.

    A :class:`StreamBank` from :data:`BANK_MIN_N` nodes on, a list of
    sources below; either way node ``v`` gets the stream of the ``v``-th
    child, and ``source`` spawns the same children afterwards.
    """
    if n >= BANK_MIN_N:
        return source.spawn_bank(n)
    return source.spawn_many(n)


def decay_probabilities(n: int) -> list[float]:
    """Decay's coin in round ``i`` of a phase: ``2^-i``, i = 0..ilog2(n)."""
    return [2.0 ** (-i) for i in range(ilog2(n) + 1)]


def wave_schedule(
    n: int, decay_interleave: bool, wave: Callable[[int], Sequence[int]]
) -> Schedule:
    """FASTBC's alternation: a Decay step in odd rounds, ``wave(t)`` in round 2t.

    Odd rounds are silent when ``decay_interleave`` is False.
    """
    decay = decay_probabilities(n)
    phase = len(decay)

    def schedule(round_index: int) -> Step:
        if round_index % 2:
            if not decay_interleave:
                return SILENT
            return decay[(round_index // 2) % phase]
        return wave(round_index // 2)

    return schedule


class ScheduleLayer:
    """Every node of a single-message broadcast, following one schedule.

    Node ``v`` draws its coins from stream ``v`` of ``rngs``: one
    ``random()`` in each coin round with ``p < 1`` while it is informed,
    as ``bernoulli(p)`` on its own stream does. The layer keeps the
    informed nodes in a bytearray and a list, so the stop check reads the
    list's length. A round's broadcasters go to the channel as an
    ascending int64 array, and its receivers come back as one; one mask
    over a numpy view of the bytearray picks out those not yet informed.

    A coin round draws from a :class:`StreamBank` in a few numpy calls
    over the informed nodes, ascending. Per-node sources are drawn in one
    pass over each informed node's bound ``random`` method, kept in the
    order the nodes were informed.

    Parameters
    ----------
    schedule:
        Round index -> step (see the module docstring).
    rngs:
        One private stream per node, in node order: a sequence of sources
        or a bank (see :func:`node_streams`).
    source:
        The node informed at the start.
    """

    def __init__(
        self,
        schedule: Schedule,
        rngs: "Sequence[RandomSource] | StreamBank",
        source: int,
    ) -> None:
        self.schedule = schedule
        self.rngs = rngs
        #: the streams as one bank, or None for per-node sources
        self.bank = rngs if isinstance(rngs, StreamBank) else None
        #: 1 at the informed nodes
        self.informed = bytearray(len(rngs))
        # the same bytes as a numpy array, for the array-valued rounds
        self._informed_view = np.frombuffer(self.informed, dtype=np.uint8)
        #: the informed nodes, in the order they were informed
        self.nodes: list[int] = []
        #: ``rngs[v].bound_random`` for each ``v`` in :attr:`nodes`, when
        #: the streams are per-node sources
        self.coins: list[Callable[[], float]] = []
        self.inform(source)

    def inform(self, node: int) -> None:
        """Mark a node that is not yet informed as informed."""
        self.informed[node] = 1
        self.nodes.append(node)
        if self.bank is None:
            self.coins.append(self.rngs[node].bound_random)

    def fire(self, round_index: int) -> np.ndarray:
        """The informed nodes that broadcast in ``round_index``, ascending.

        Draws the round's coins: on a coin round with ``p < 1``, one per
        informed node.
        """
        step = self.schedule(round_index)
        if isinstance(step, float):
            if step >= 1.0:
                return np.flatnonzero(self._informed_view)
            if self.bank is not None:
                rows = np.flatnonzero(self._informed_view)
                return rows[self.bank.random(rows) < step]
            fired = compress(self.nodes, [coin() < step for coin in self.coins])
            ascending = np.array(list(fired), dtype=np.int64)
            ascending.sort()
            return ascending
        informed = self.informed
        return node_array([v for v in step if informed[v]])

    # -- ProtocolLayer -------------------------------------------------------

    def act(self, round_index: int) -> np.ndarray:
        return self.fire(round_index)

    def deliver(self, result: RoundResult) -> None:
        receivers = result.receivers
        if len(receivers):
            fresh = receivers[self._informed_view[receivers] == 0]
            if self.bank is None:
                # per-node sources serve the small networks, whose rounds
                # inform a few nodes: a loop beats a fancy assignment there
                for v in fresh.tolist():
                    self.inform(v)
            else:
                self._informed_view[fresh] = 1
                self.nodes.extend(fresh.tolist())

    def all_done(self) -> bool:
        return len(self.nodes) == len(self.informed)

    def done_count(self) -> int:
        return len(self.nodes)

    def active_nodes(self) -> list[int]:
        return sorted(self.nodes)
