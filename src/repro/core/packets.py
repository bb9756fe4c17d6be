"""Packet types carried on the radio channel.

The model distinguishes *routing* packets — one of the k broadcast messages,
identified by index (Section 3.1) — from *coding* packets, which are
arbitrary O(log nk)-bit strings. Two concrete packet kinds cover the
per-node protocols:

* :class:`MessagePacket` — routing: "message i" (optionally with payload).
* :class:`repro.coding.rlnc.CodedPacket` — an RLNC combination
  (Lemmas 12-13); re-exported here for convenience.

A node perceives noise on collision, fault, or silence. The model
guarantees nodes never mistake it for a packet, which the engine
enforces by *not delivering anything at all* in those cases — protocols
observe noise as the absence of a delivery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.coding.rlnc import CodedPacket

__all__ = ["MessagePacket", "Packet"]


@dataclass(frozen=True)
class MessagePacket:
    """A routing packet: one of the k broadcast messages.

    ``index`` identifies the message in {0, ..., k-1}; ``payload`` carries
    the message content where an experiment needs end-to-end data integrity
    checks (empty by default — most round-complexity experiments only track
    identity).
    """

    index: int
    payload: bytes = b""

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"message index must be >= 0, got {self.index}")


Packet = Union[MessagePacket, CodedPacket]
