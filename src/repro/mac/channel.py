"""The contention MAC channel: slotted CSMA/CA over the radio network.

:class:`ContentionChannel` is a sibling of :class:`~repro.core.engine.Channel`
in which loss is *endogenous* — caused by the protocol's own traffic —
instead of injected by an adversary. Each simulated round is one MAC
slot:

1. **Gate.** Every node offering a packet is a *contender*. A contender
   without backoff state draws a counter uniformly from
   ``[0, cw_min - 1]``. With carrier sensing on, a contender that heard
   energy (its own or any neighbor's transmission) in the previous slot
   *defers*: it neither transmits nor counts down. Remaining contenders
   transmit iff their counter is zero, else decrement it.
2. **Resolve.** Actual transmitters go through the ordinary collision
   channel (same semantics, counters, adversary hooks and round
   observers as the default channel) — exogenous adversaries compose *on
   top of* contention. With a capture threshold set, a receiver hearing
   several transmitters still captures the strongest one when its
   per-slot power exceeds ``capture`` times the runner-up's.
3. **Feedback.** A transmission *succeeded* iff its node appears in
   the round's ``senders``, the parallel array of who each receiver
   heard. Success resets the node's backoff stage; failure doubles
   its contention window (clamped at ``cw_max``); either way the node
   redraws its counter from the new window. Finally the slot's energy
   map becomes the next slot's carrier-sense input.

Sensing is strictly local, so hidden terminals emerge naturally: two
transmitters outside each other's sensing range never defer to one
another yet still destroy a shared receiver's slot.

Like the base channel, the MAC has two property-checked kernels — a
vectorized numpy gate/feedback and a scalar reference (driven through
:meth:`~repro.core.engine.Channel.transmit_reference`) — consuming one
identical RNG stream (bulk uniform draws in ascending node order). MAC
randomness lives on a *child* stream of the channel RNG, so adversary
coin streams match a default-channel run of the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.engine import (
    _EMPTY,
    Channel,
    RoundObserver,
    RoundResult,
    _node_pairs,
    node_array,
)
from repro.core.faults import AdversaryConfig, FaultConfig
from repro.core.network import RadioNetwork
from repro.core.trace import ChannelCounters
from repro.mac.config import MacConfig
from repro.util.rng import RandomSource

__all__ = ["ContentionChannel", "MacCounters"]


@dataclass
class MacCounters(ChannelCounters):
    """Channel counters extended with MAC-layer statistics.

    The base fields keep their meaning over *actual transmissions*
    (``broadcasts`` counts packets that reached the air, not offers).
    Default-channel runs keep using :class:`ChannelCounters`, so their
    report bytes are untouched.
    """

    mac_offers: int = 0  # packets offered to the gate
    mac_defers: int = 0  # contender-slots frozen by carrier sense
    mac_transmissions: int = 0  # offers that reached the air
    mac_tx_success: int = 0  # transmissions with >= 1 delivery
    mac_tx_collisions: int = 0  # transmissions that escalated backoff
    mac_captures: int = 0  # collided receptions rescued by capture

    def as_dict(self) -> dict[str, int]:
        data = super().as_dict()
        data.update(
            {
                "mac_offers": self.mac_offers,
                "mac_defers": self.mac_defers,
                "mac_transmissions": self.mac_transmissions,
                "mac_tx_success": self.mac_tx_success,
                "mac_tx_collisions": self.mac_tx_collisions,
                "mac_captures": self.mac_captures,
            }
        )
        return data

    def __str__(self) -> str:
        return (
            super().__str__()
            + f" mac_offers={self.mac_offers} mac_defers={self.mac_defers}"
            f" mac_transmissions={self.mac_transmissions}"
            f" mac_tx_success={self.mac_tx_success}"
            f" mac_tx_collisions={self.mac_tx_collisions}"
            f" mac_captures={self.mac_captures}"
        )


class ContentionChannel(Channel):
    """A :class:`~repro.core.engine.Channel` with CSMA/CA medium access.

    Parameters are the base channel's plus ``config``, the
    :class:`~repro.mac.config.MacConfig` describing the MAC. Backoff
    state persists across slots: a node that stops offering keeps its
    counter frozen until it contends again.

    Each slot is summed into ``counters`` (a :class:`MacCounters`) and
    nowhere else. The run driver adds a finished run's counters to the
    ``repro_mac_*`` metrics, so a channel built outside it, like
    :func:`~repro.mac.saturation.saturation_sim`'s, counts into none.
    """

    def __init__(
        self,
        network: RadioNetwork,
        faults: FaultConfig = FaultConfig.faultless(),
        rng: "int | RandomSource | None" = None,
        observers: Sequence[RoundObserver] = (),
        adversary: "AdversaryConfig | None" = None,
        config: Optional[MacConfig] = None,
    ) -> None:
        super().__init__(network, faults, rng, observers, adversary=adversary)
        self.config = config if config is not None else MacConfig()
        self.counters = MacCounters()
        n = network.n
        # persistent per-node MAC state (-1 backoff: no counter drawn yet)
        self._backoff = np.full(n, -1, dtype=np.int64)
        self._stage = np.zeros(n, dtype=np.int64)
        self._busy_prev = np.zeros(n, dtype=bool)
        # per-slot transmit powers, valid only at transmitter indices and
        # only while capture is enabled
        self._power = np.zeros(n, dtype=np.float64)
        # MAC randomness rides a child stream so the adversary's draws on
        # the channel stream are unchanged versus a default-channel run
        self._mac_rng = self.rng.spawn()

    # -- public entry points -------------------------------------------------

    def transmit(self, broadcasters: np.ndarray) -> RoundResult:
        """Resolve one MAC slot given its ascending int64 array of offerers.

        The gate and feedback run in numpy; the collision round between
        them takes the base channel's per-round kernel choice.
        """
        return self._mac_round(
            broadcasters,
            self._gate_vectorized,
            self._resolve_auto,
            self._feedback_vectorized,
        )

    def transmit_reference(self, broadcasters: np.ndarray) -> RoundResult:
        """Scalar reference: same slot semantics, same RNG stream."""
        return self._mac_round(
            broadcasters,
            self._gate_scalar,
            self._resolve_scalar,
            self._feedback_scalar,
        )

    # -- slot pipeline -------------------------------------------------------

    def _mac_round(self, offers: np.ndarray, gate, resolver, feedback) -> RoundResult:
        """One slot: ``gate`` the offers, ``resolver`` the round, ``feedback``.

        ``feedback(tx, result)`` runs only on a slot with transmitters,
        after the slot's energy map is cleared, and returns the number of
        successful transmissions.
        """
        # the one check of the slot: the transmitters the gate picks are
        # a subset of the offers, so they pass to the channel as they are
        offers = self._checked(offers)
        counters = self.counters
        tx, defers = gate(offers)
        counters.mac_offers += len(offers)
        counters.mac_defers += defers
        counters.mac_transmissions += len(tx)
        result = self._run_round(tx, resolver)
        self._busy_prev[:] = False
        successes = feedback(tx, result) if len(tx) else 0
        counters.mac_tx_success += successes
        counters.mac_tx_collisions += len(tx) - successes
        return result

    def _gate_vectorized(self, contenders: np.ndarray) -> tuple[np.ndarray, int]:
        """Numpy MAC gate: draw, sense, fire, count down — in bulk."""
        config = self.config
        backoff = self._backoff
        if contenders.size == 0:
            return contenders, 0
        fresh = contenders[backoff[contenders] < 0]
        if fresh.size:
            draws = self._mac_rng.uniform_array(int(fresh.size))
            backoff[fresh] = (draws * config.cw_min).astype(np.int64)
            self._stage[fresh] = 0
        if config.sense:
            deferred = self._busy_prev[contenders]
            active = contenders[~deferred]
            defers = int(deferred.sum())
        else:
            active = contenders
            defers = 0
        firing = backoff[active] == 0
        tx = active[firing]
        backoff[active[~firing]] -= 1
        if config.capture and tx.size:
            self._power[tx] = self._mac_rng.uniform_array(int(tx.size))
        return tx, defers

    def _gate_scalar(self, offers: np.ndarray) -> tuple[np.ndarray, int]:
        """Reference MAC gate: per-node loop over the same bulk draws."""
        config = self.config
        backoff = self._backoff
        contenders = offers.tolist()
        if not contenders:
            return offers, 0
        fresh = [b for b in contenders if backoff[b] < 0]
        if fresh:
            draws = self._mac_rng.uniform_array(len(fresh))
            for i, b in enumerate(fresh):
                backoff[b] = int(draws[i] * config.cw_min)
                self._stage[b] = 0
        tx: list[int] = []
        defers = 0
        for b in contenders:
            if config.sense and self._busy_prev[b]:
                defers += 1
                continue
            if backoff[b] == 0:
                tx.append(b)
            else:
                backoff[b] -= 1
        if config.capture and tx:
            powers = self._mac_rng.uniform_array(len(tx))
            for i, b in enumerate(tx):
                self._power[b] = powers[i]
        return node_array(tx), defers

    def _feedback_vectorized(self, tx: np.ndarray, result: RoundResult) -> int:
        """Numpy feedback: energy map, backoff evolution, redraws — in bulk.

        A transmission succeeded iff its node appears in
        ``result.senders``. Every transmitter redraws its counter from one
        bulk uniform draw in ascending node order, so the RNG stream is
        outcome-independent and identical across kernels.
        """
        config = self.config
        stage = self._stage
        network = self.network
        draws = self._mac_rng.uniform_array(len(tx))
        busy = self._busy_prev
        busy[tx] = True
        busy[network.indices[network.csr_slots(tx)[0]]] = True
        succeeded = np.zeros(network.n, dtype=bool)
        succeeded[result.senders] = True
        succ = succeeded[tx]
        stage[tx[succ]] = 0
        failed = tx[~succ]
        stage[failed] = np.minimum(stage[failed] + 1, config.max_stage)
        windows = np.minimum(
            np.left_shift(np.int64(config.cw_min), stage[tx]), config.cw_max
        )
        self._backoff[tx] = (draws * windows).astype(np.int64)
        return int(succ.sum())

    def _feedback_scalar(self, tx: np.ndarray, result: RoundResult) -> int:
        """Reference feedback: per-node loop over the same bulk draws."""
        config = self.config
        stage = self._stage
        neighbors = self.network.neighbors
        draws = self._mac_rng.uniform_array(len(tx))
        busy = self._busy_prev
        succeeded = set(result.senders.tolist())
        tx_nodes = tx.tolist()
        successes = 0
        for b in tx_nodes:
            busy[b] = True
            for v in neighbors[b]:
                busy[v] = True
        for i, b in enumerate(tx_nodes):
            if b in succeeded:
                stage[b] = 0
                successes += 1
            else:
                stage[b] = min(int(stage[b]) + 1, config.max_stage)
            self._backoff[b] = int(draws[i] * config.window(int(stage[b])))
        return successes

    # -- capture-aware resolution -------------------------------------------
    #
    # Without capture the base kernels apply unchanged (a collided slot
    # is simply lost). With a capture threshold the strongest of several
    # transmitters can still win a receiver, which needs per-receiver
    # transmitter groups rather than the base kernel's hear-counts.

    def _resolve_vectorized(self, result: RoundResult) -> None:
        if not self.config.capture:
            super()._resolve_vectorized(result)
            return
        n = self.network.n
        bs = result.broadcasters
        faulty, heard, senders = self._prologue_vectorized(result)

        listening = np.ones(n, dtype=bool)
        listening[bs] = False  # a transmitting node cannot receive
        keep = listening[heard]
        heard = heard[keep]
        senders = senders[keep]

        if heard.size == 0:
            unique = unique_senders = _EMPTY
        else:
            powers = self._power[senders]
            # stable sort by (receiver, power): the last slot of each
            # receiver group is the strongest transmitter, ties resolved
            # toward the later (larger-id) sender exactly like the
            # scalar reference
            order = np.lexsort((powers, heard))
            h = heard[order]
            s = senders[order]
            p = powers[order]
            ends = np.nonzero(np.r_[h[1:] != h[:-1], True])[0]
            sizes = np.diff(np.r_[np.int64(-1), ends])
            receivers = h[ends].astype(np.int64)  # ascending receiver ids
            strongest = s[ends]
            multi = sizes >= 2
            p_top = p[ends]
            p_second = np.where(multi, p[np.maximum(ends - 1, 0)], 0.0)
            captured = multi & (p_top >= self.config.capture * p_second)
            self.counters.mac_captures += int(captured.sum())
            lost = multi & ~captured
            result.collision_receivers = receivers[lost]
            unique = receivers[~lost]
            unique_senders = strongest[~lost]

        self._fill_vectorized(result, faulty, unique, unique_senders)

    def _resolve_scalar(self, result: RoundResult) -> None:
        if not self.config.capture:
            super()._resolve_scalar(result)
            return
        broadcasters, faulty, alive = self._prologue_scalar(result)

        neighbors = self.network.neighbors
        sending = set(broadcasters)
        heard_by: dict[int, list[int]] = {}
        slot = 0
        for b in broadcasters:
            for v in neighbors[b]:
                if (alive is None or alive[slot]) and v not in sending:
                    heard_by.setdefault(v, []).append(b)
                slot += 1

        power = self._power
        ratio = self.config.capture
        collisions: list[int] = []
        silenced: list[int] = []
        silenced_senders: list[int] = []
        eligible: list[int] = []
        eligible_senders: list[int] = []
        for v in sorted(heard_by):
            txs = heard_by[v]
            if len(txs) == 1:
                winner = txs[0]
            else:
                # strongest transmitter; power ties go to the later slot
                # (larger sender id), matching the vectorized lexsort
                best = max(
                    range(len(txs)), key=lambda i: (power[txs[i]], i)
                )
                p_top = power[txs[best]]
                p_second = max(
                    power[txs[i]] for i in range(len(txs)) if i != best
                )
                if p_top >= ratio * p_second:
                    winner = txs[best]
                    self.counters.mac_captures += 1
                else:
                    collisions.append(v)
                    continue
            if winner in faulty:
                silenced.append(v)
                silenced_senders.append(winner)
                continue
            eligible.append(v)
            eligible_senders.append(winner)
        result.collision_receivers = node_array(collisions)
        result.silenced_receivers, result.silenced_senders = _node_pairs(
            silenced, silenced_senders
        )
        self._fill_scalar(result, eligible, eligible_senders)
