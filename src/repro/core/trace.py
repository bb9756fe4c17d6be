"""Simulation instrumentation: cheap counters plus an optional event log.

Counters are always maintained (a handful of integer additions per round).
The full per-event log is opt-in — a :class:`TraceRecorder` passed as a
channel observer — because long multi-message simulations would otherwise
accumulate millions of event records.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.engine import RoundResult

__all__ = ["ChannelCounters", "TraceRecorder", "TraceEvent"]


@dataclass
class ChannelCounters:
    """Aggregate channel statistics for one simulation run."""

    rounds: int = 0
    broadcasts: int = 0
    deliveries: int = 0
    collisions: int = 0  # listener-rounds lost to >= 2 broadcasting neighbors
    sender_faults: int = 0  # broadcaster-rounds that transmitted noise
    receiver_faults: int = 0  # deliveries replaced by noise at the receiver

    def as_dict(self) -> dict[str, int]:
        return {
            "rounds": self.rounds,
            "broadcasts": self.broadcasts,
            "deliveries": self.deliveries,
            "collisions": self.collisions,
            "sender_faults": self.sender_faults,
            "receiver_faults": self.receiver_faults,
        }

    def __str__(self) -> str:
        return (
            f"rounds={self.rounds} broadcasts={self.broadcasts} "
            f"deliveries={self.deliveries} collisions={self.collisions} "
            f"sender_faults={self.sender_faults} "
            f"receiver_faults={self.receiver_faults}"
        )


@dataclass(frozen=True)
class TraceEvent:
    """One channel event. ``kind`` is one of:

    ``broadcast`` (node sent a packet), ``deliver`` (receiver got packet
    from sender), ``collision`` (receiver heard >= 2 broadcasters),
    ``sender_fault`` (broadcaster emitted noise), ``receiver_fault``
    (receiver's sole reception was replaced by noise).
    """

    round_index: int
    kind: str
    node: int
    peer: Optional[int] = None
    detail: Any = None


class TraceRecorder:
    """Collects :class:`TraceEvent` records: a channel round observer.

    Attach it with ``Channel(..., observers=[recorder])``; it derives each
    round's events from the :class:`~repro.core.engine.RoundResult`, so it
    records the same stream on either channel kernel.

    Parameters
    ----------
    enabled:
        When False the recorder ignores every round and ``record`` call.
    max_events:
        Safety cap; recording stops past the cap (the counters in
        :class:`ChannelCounters` stay exact regardless). Overflow is
        accounted, not silent: ``dropped`` counts the events lost to the
        cap, :meth:`as_dict` exposes it, and the first drop emits one
        :class:`RuntimeWarning`.
    sample:
        Fraction of offered events kept, decided per event by a hash of
        ``(sample_seed, event position)`` — the same idiom as
        :class:`~repro.telemetry.tracing.TraceSink`'s per-trace coin, so
        two runs of the same simulation (on either channel kernel) keep
        the *same* subset. 1.0 (the default) keeps everything and skips the
        coin entirely; events skipped by sampling are counted in
        ``sampled_out`` and never touch the cap.
    sample_seed:
        Seed for the per-event coin; vary it to draw a different (still
        deterministic) subset at the same rate.
    """

    def __init__(
        self,
        enabled: bool = True,
        max_events: int = 1_000_000,
        sample: float = 1.0,
        sample_seed: int = 0,
    ) -> None:
        if not 0.0 <= sample <= 1.0:
            raise ValueError(f"sample must be in [0, 1], got {sample}")
        self.enabled = enabled
        self.max_events = max_events
        self.sample = float(sample)
        self.sample_seed = int(sample_seed)
        self.events: list[TraceEvent] = []
        self.dropped = 0
        self.sampled_out = 0
        self._offered = 0

    def _keeps(self, index: int) -> bool:
        """The sampling decision for the ``index``-th offered event.

        Pure in ``(sample_seed, index)``: a splitmix64 finalizer turns
        the position into a uniform coin, so the kept subset depends only
        on the event order, never on wall time or process state.
        """
        if self.sample >= 1.0:
            return True
        if self.sample <= 0.0:
            return False
        x = (
            self.sample_seed * 0x9E3779B97F4A7C15 + index + 1
        ) & 0xFFFFFFFFFFFFFFFF
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        x ^= x >> 31
        return x / float(1 << 64) < self.sample

    def record(
        self,
        round_index: int,
        kind: str,
        node: int,
        peer: Optional[int] = None,
        detail: Any = None,
    ) -> None:
        if not self.enabled:
            return
        index = self._offered
        self._offered += 1
        if not self._keeps(index):
            self.sampled_out += 1
            return
        if len(self.events) >= self.max_events:
            if self.dropped == 0:
                warnings.warn(
                    f"TraceRecorder hit its {self.max_events}-event cap; "
                    "further events are dropped (counted in .dropped). "
                    "Raise max_events or use a Scenario.timeline config "
                    "for bounded per-round recording.",
                    RuntimeWarning,
                    stacklevel=2,
                )
            self.dropped += 1
            return
        self.events.append(TraceEvent(round_index, kind, node, peer, detail))

    def on_round(self, result: "RoundResult") -> None:
        """Record one resolved round's events.

        Per round: broadcasts, sender faults and collisions, each in
        ascending node order, then receiver faults and deliveries merged
        in ascending receiver order.
        """
        if not self.enabled:
            return
        r = result.round_index
        record = self.record
        # .tolist(): events hold plain ints, never numpy scalars
        for b in result.broadcasters.tolist():
            record(r, "broadcast", b)
        for b in result.faulty_senders.tolist():
            record(r, "sender_fault", b)
        for v in result.collision_receivers.tolist():
            record(r, "collision", v)
        corrupted = zip(
            result.corrupted_receivers.tolist(), result.corrupted_senders.tolist()
        )
        delivered = zip(result.receivers.tolist(), result.senders.tolist())
        receptions = [(v, "receiver_fault", s) for v, s in corrupted]
        receptions += [(v, "deliver", s) for v, s in delivered]
        for v, kind, s in sorted(receptions):
            record(r, kind, v, s)

    def as_dict(self) -> dict[str, Any]:
        """Recording status summary (capacity, recorded, dropped)."""
        return {
            "enabled": self.enabled,
            "max_events": self.max_events,
            "recorded": len(self.events),
            "dropped": self.dropped,
            "sample": self.sample,
            "sampled_out": self.sampled_out,
        }

    def events_of_kind(self, kind: str) -> list[TraceEvent]:
        return [e for e in self.events if e.kind == kind]

    def events_in_round(self, round_index: int) -> list[TraceEvent]:
        return [e for e in self.events if e.round_index == round_index]

    def clear(self) -> None:
        self.events.clear()
        self.dropped = 0
        self.sampled_out = 0
        self._offered = 0

    def __len__(self) -> int:
        return len(self.events)
