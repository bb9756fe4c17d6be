"""The array-based flight recorder: a channel round observer.

:class:`TimelineRecorder` accumulates per-round channel statistics in
integer accumulators and per-node numpy arrays — no per-event Python
objects on the hot path. Each flushed bucket is one tuple, and the rows
become one int64 array when they are read. It attaches like any
observer (the run driver hands it to the simulator's channel), so a
channel without one pays nothing for it.

Rows are *buckets* of ``config.every`` consecutive rounds. A bucket is
flushed lazily — at the first round of the *next* bucket, or at
:meth:`finish` — because some per-round signals arrive after the channel
epilogue: the simulator dispatches deliveries to protocols only after
``transmit`` returns, so RLNC rank progress for round ``r``
(:meth:`note_innovative`) lands while round ``r``'s bucket is still open.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.engine import RoundResult
    from repro.timeline.config import TimelineConfig

__all__ = ["TimelineRecorder", "DATA_COLUMNS"]

#: bucket-row columns, in canonical order. ``round_start`` is the first
#: round index of the bucket; ``informed`` is cumulative at bucket end;
#: everything else is a within-bucket sum.
DATA_COLUMNS = (
    "round_start",
    "broadcasts",
    "deliveries",
    "collisions",
    "sender_faults",
    "receiver_faults",
    "new_informed",
    "informed",
    "innovative",
)

_NCOL = len(DATA_COLUMNS)


class TimelineRecorder:
    """Accumulates one run's per-round flight data, one row per bucket.

    Parameters
    ----------
    n:
        Network size (bounds the per-node arrays).
    config:
        Downsampling policy (bucket width, per-node detail cap).

    Per-round column values are the sizes of the round's
    :class:`~repro.core.engine.RoundResult` lists — which both channel
    kernels fill identically, so a timeline is kernel-independent by
    construction (the test suite checks this byte-for-byte). New-delivery
    detection is a bulk numpy mask over the round's receivers (unique per
    round by the channel model).
    """

    def __init__(self, n: int, config: "TimelineConfig") -> None:
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        self.n = n
        self.config = config
        self.every = config.every
        self.rounds = 0
        self.first_delivery = np.full(n, -1, dtype=np.int64)
        self._informed_mask = np.zeros(n, dtype=bool)
        self.informed = 0
        # nodes still waiting for their first delivery; once this hits 0
        # with everyone informed, deliveries carry no per-node news and
        # on_round degrades to pure bucket arithmetic
        self._first_pending = n
        # one tuple per flushed bucket, in DATA_COLUMNS order
        self._rows: list[tuple[int, ...]] = []
        # open-bucket accumulators
        self._b_open = False
        self._b_index = -1
        self._b_broadcasts = 0
        self._b_deliveries = 0
        self._b_collisions = 0
        self._b_sender_faults = 0
        self._b_receiver_faults = 0
        self._b_new_informed = 0
        self._b_innovative = 0
        self._finished = False

    # -- producer side (engine / protocols) ---------------------------------

    def mark_informed(self, node: int) -> None:
        """Mark a node informed before any delivery (the source set)."""
        if not self._informed_mask[node]:
            self._informed_mask[node] = True
            self.informed += 1

    def note_innovative(self, count: int = 1) -> None:
        """Credit rank-advancing receptions to the open bucket (RLNC)."""
        self._b_innovative += count

    def on_round(self, result: "RoundResult") -> None:
        """Absorb one resolved channel round."""
        round_index = result.round_index
        bucket = round_index // self.every
        if self._b_open and bucket != self._b_index:
            self._flush()
        if not self._b_open:
            self._b_open = True
            self._b_index = bucket
        self.rounds += 1

        receivers = result.receivers
        self._b_broadcasts += len(result.broadcasters)
        self._b_deliveries += len(receivers)
        self._b_collisions += len(result.collision_receivers)
        self._b_sender_faults += len(result.faulty_senders)
        self._b_receiver_faults += len(result.corrupted_receivers)

        if len(receivers) and (self._first_pending or self.informed < self.n):
            fresh = receivers[self.first_delivery[receivers] < 0]
            if fresh.size:
                self.first_delivery[fresh] = round_index
                self._first_pending -= int(fresh.size)
            new = receivers[~self._informed_mask[receivers]]
            if new.size:
                self._informed_mask[new] = True
                self.informed += int(new.size)
                self._b_new_informed += int(new.size)

    def finish(self) -> None:
        """Flush the open bucket; idempotent, called once the run ends."""
        if self._finished:
            return
        if self._b_open:
            self._flush()
        self._finished = True

    # -- internals -----------------------------------------------------------

    def _flush(self) -> None:
        self._rows.append(
            (
                self._b_index * self.every,
                self._b_broadcasts,
                self._b_deliveries,
                self._b_collisions,
                self._b_sender_faults,
                self._b_receiver_faults,
                self._b_new_informed,
                self.informed,
                self._b_innovative,
            )
        )
        self._b_open = False
        self._b_broadcasts = 0
        self._b_deliveries = 0
        self._b_collisions = 0
        self._b_sender_faults = 0
        self._b_receiver_faults = 0
        self._b_new_informed = 0
        self._b_innovative = 0

    # -- consumer side --------------------------------------------------------

    def rows(self) -> np.ndarray:
        """The flushed bucket rows, ``(len, len(DATA_COLUMNS))`` int64."""
        return np.array(self._rows, dtype=np.int64).reshape(-1, _NCOL)

    def __len__(self) -> int:
        return len(self._rows)
