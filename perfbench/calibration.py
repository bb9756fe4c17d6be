"""Host-speed calibration: a fixed block of work timed inside the timed run.

The host these numbers come from is a shared 2-vCPU VM whose speed
swings by up to 2x for stretches of seconds to minutes. While a timed run
measures, a ``SIGALRM`` interval timer interrupts it every
``INTERVAL_S`` and the handler times one fixed block of work, in the same
thread and on the same vCPU as the program. Each timing of the run is
then scaled by how slowly the block ran over the same stretch of time, so
it reads as seconds on the host at its nominal speed. The scale is the
harmonic mean of the blocks' slowdowns: the blocks are evenly spaced in
time, so the mean of their speeds is the host's mean speed over the
stretch, which is what the run's duration integrates. The block shares no
code with the program, so a change to the program cannot move it; it
does the same kinds of work (Python method calls and dict inserts, small
numpy gathers, JSON and SHA-256).

The handler's own time is taken out of every timing: the run stamps with
:func:`clock`, which stands still while the handler runs. Python runs a
signal handler between bytecodes of the main thread, never inside a C
call, so the program's state is never touched half-way.

Why in the same thread and not in a second process on the other vCPU: on
the reference host, over a minute of identical 0.13 s Decay runs, scaling
by a second process widened the spread between the first and third
quartile of the run times from 0.16 of the median (unscaled) to 0.71,
while scaling by the in-process timer narrowed it to 0.07. Why the
harmonic mean and not the median: over 16 identical ``rlnc-grid`` runs
(8 s each) the spread was 0.27 unscaled, 0.11 scaled by the median block
and 0.04 scaled by the harmonic mean; over 96 Decay runs on a 4096-node
grid, 0.18, 0.06 and 0.05.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import signal
import statistics
import time
from contextlib import contextmanager
from typing import Iterator

import numpy as np

__all__ = ["NOMINAL_BLOCK_S", "Calibration", "block", "clock", "sampling", "slowdown_now"]

_perf = time.perf_counter

#: median block time on the reference host (2-vCPU VM, 2.1 GHz) when quiet
NOMINAL_BLOCK_S = 0.0044
#: seconds between two timed blocks while a run measures
INTERVAL_S = 0.1
#: fewest blocks a slowdown is taken over; a shorter window borrows the
#: blocks nearest to it
MIN_BLOCKS = 9
#: blocks timed back to back by :func:`slowdown_now`
NOW_BLOCKS = 15


class _Node:
    __slots__ = ("state",)

    def __init__(self, state: int) -> None:
        self.state = state

    def act(self, round_index: int):
        return self.state if (round_index + self.state) % 3 == 0 else None


_NODES = [_Node(i) for i in range(512)]
_HEARD = np.arange(8192, dtype=np.int64) * 7919 % 4096
_RECORD = {"algorithm": "decay", "params": {"k": 4}, "seed": 12345, "counters": list(range(16))}

#: seconds the handler has taken so far; :func:`clock` leaves them out
_stolen = 0.0


def block() -> float:
    """Seconds one fixed block of program-independent work takes now."""
    start = _perf()
    for round_index in range(60):
        actions = {}
        for node_id, node in enumerate(_NODES):
            packet = node.act(round_index)
            if packet is not None:
                actions[node_id] = packet
        hear = np.bincount(_HEARD, minlength=4096)
        _HEARD[np.nonzero(hear == 2)[0]].sum()
        hashlib.sha256(json.dumps(_RECORD, sort_keys=True).encode()).hexdigest()
    return _perf() - start


def clock() -> float:
    """``time.perf_counter`` minus the time the handler has taken."""
    while True:
        stolen = _stolen
        now = _perf()
        if stolen == _stolen:  # no handler ran between the two reads
            return now - stolen


class Calibration:
    """Block timings ``(midpoint, seconds)`` and the slowdown they imply."""

    def __init__(self, blocks: list) -> None:
        if len(blocks) < MIN_BLOCKS:
            raise RuntimeError(f"calibration timed {len(blocks)} blocks")
        self.blocks = sorted(blocks)
        self._mids = [mid for mid, _ in self.blocks]

    def slowdown(self, start: float, end: float) -> float:
        """Harmonic mean of the slowdowns timed over ``[start, end]``."""
        lo = bisect.bisect_left(self._mids, start)
        hi = bisect.bisect_right(self._mids, end)
        if hi - lo < MIN_BLOCKS:
            middle = bisect.bisect_left(self._mids, (start + end) / 2)
            lo = max(0, min(middle - MIN_BLOCKS // 2, len(self.blocks) - MIN_BLOCKS))
            hi = lo + MIN_BLOCKS
        return statistics.harmonic_mean(s for _, s in self.blocks[lo:hi]) / NOMINAL_BLOCK_S


@contextmanager
def sampling() -> Iterator[list]:
    """Time a block every ``INTERVAL_S`` for the ``with`` body.

    Yields a list that holds one :class:`Calibration`, stamped in
    :func:`clock` time, once the body is done and the timer is stopped.
    """
    blocks: list = []

    def handler(signum, frame):
        global _stolen
        entered = _perf()
        seconds = block()
        # clock() stands still while the handler runs: the block sits at
        # one instant of clock() time
        blocks.append((entered - _stolen, seconds))
        _stolen += _perf() - entered

    result: list = []
    previous = signal.signal(signal.SIGALRM, handler)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    try:
        yield result
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    result.append(Calibration(blocks))


def slowdown_now() -> float:
    """The slowdown of ``NOW_BLOCKS`` blocks timed back to back now."""
    return statistics.harmonic_mean(block() for _ in range(NOW_BLOCKS)) / NOMINAL_BLOCK_S
