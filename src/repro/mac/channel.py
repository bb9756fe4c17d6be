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
3. **Feedback.** A transmission *succeeded* iff at least one delivery
   names it. Success resets the node's backoff stage; failure doubles
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

from repro.core.engine import Channel, RoundObserver, RoundResult
from repro.core.faults import AdversaryConfig, FaultConfig
from repro.core.network import RadioNetwork
from repro.core.trace import ChannelCounters
from repro.mac.config import MacConfig
from repro.telemetry.metrics import METRICS as _METRICS
from repro.util.rng import RandomSource

__all__ = ["ContentionChannel", "MacCounters"]

# MAC hot-seam metrics: registered once at import, bulk-incremented per
# slot behind the single _METRICS.enabled attribute read
_M_OFFERS = _METRICS.counter(
    "repro_mac_offers_total", "packets offered to the MAC gate"
)
_M_TRANSMISSIONS = _METRICS.counter(
    "repro_mac_transmissions_total", "offers that reached the air"
)
_M_DEFERS = _METRICS.counter(
    "repro_mac_defers_total", "contender-slots frozen by carrier sense"
)
_M_MAC_COLLISIONS = _METRICS.counter(
    "repro_mac_collisions_total",
    "transmissions that failed (no delivery) and escalated backoff",
)
_M_BACKOFF_RESETS = _METRICS.counter(
    "repro_mac_backoff_resets_total",
    "transmissions that succeeded and reset their contention window",
)
_M_CAPTURES = _METRICS.counter(
    "repro_mac_captures_total",
    "collided receptions rescued by the capture effect",
)


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
    """

    def __init__(
        self,
        network: RadioNetwork,
        faults: FaultConfig = FaultConfig.faultless(),
        rng: "int | RandomSource | None" = None,
        observers: Sequence[RoundObserver] = (),
        kernel: str = "auto",
        adversary: "AdversaryConfig | None" = None,
        config: Optional[MacConfig] = None,
    ) -> None:
        super().__init__(
            network, faults, rng, observers, kernel=kernel, adversary=adversary
        )
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

    def transmit(self, actions) -> RoundResult:
        """Resolve one MAC slot given ``{offerer: packet}`` offers."""
        return self._mac_round(actions, self._resolve_auto, scalar=False)

    def transmit_reference(self, actions) -> RoundResult:
        """Scalar reference: same slot semantics, same RNG stream."""
        return self._mac_round(actions, self._resolve_scalar, scalar=True)

    # -- slot pipeline -------------------------------------------------------

    def _mac_round(self, actions, resolver, scalar: bool) -> RoundResult:
        n = self.network.n
        for b in actions:
            if type(b) is not int or not 0 <= b < n:
                raise self._invalid_node(b, n)
        counters = self.counters
        metrics_on = _METRICS.enabled
        captures_before = counters.mac_captures
        if scalar:
            tx_nodes, defers = self._gate_scalar(actions)
        else:
            tx_nodes, defers = self._gate_vectorized(actions)
        counters.mac_offers += len(actions)
        counters.mac_defers += defers
        counters.mac_transmissions += len(tx_nodes)
        tx_actions = {b: actions[b] for b in tx_nodes}
        result = self._run_round(tx_actions, resolver)
        successes = self._feedback(tx_nodes, result, scalar)
        if metrics_on:
            if actions:
                _M_OFFERS.inc(len(actions))
            if defers:
                _M_DEFERS.inc(defers)
            if tx_nodes:
                _M_TRANSMISSIONS.inc(len(tx_nodes))
                failed = len(tx_nodes) - successes
                if failed:
                    _M_MAC_COLLISIONS.inc(failed)
                if successes:
                    _M_BACKOFF_RESETS.inc(successes)
            captures = counters.mac_captures - captures_before
            if captures:
                _M_CAPTURES.inc(captures)
        return result

    def _gate_vectorized(self, actions) -> tuple[list[int], int]:
        """Numpy MAC gate: draw, sense, fire, count down — in bulk."""
        config = self.config
        backoff = self._backoff
        contenders = np.fromiter(
            sorted(actions), dtype=np.int64, count=len(actions)
        )
        if contenders.size == 0:
            return [], 0
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
        return tx.tolist(), defers

    def _gate_scalar(self, actions) -> tuple[list[int], int]:
        """Reference MAC gate: per-node loop over the same bulk draws."""
        config = self.config
        backoff = self._backoff
        contenders = sorted(actions)
        if not contenders:
            return [], 0
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
        return tx, defers

    def _feedback(self, tx_nodes: list[int], result: RoundResult, scalar: bool) -> int:
        """Post-slot bookkeeping: energy map, backoff evolution, redraws.

        Returns the number of successful transmissions. Every transmitter
        redraws its counter from one bulk uniform draw in ascending node
        order, so the RNG stream is outcome-independent and identical
        across kernels.
        """
        busy = self._busy_prev
        busy[:] = False
        if not tx_nodes:
            return 0
        counters = self.counters
        config = self.config
        stage = self._stage
        max_stage = config.max_stage
        network = self.network
        succeeded = {delivery.sender for delivery in result.deliveries}
        draws = self._mac_rng.uniform_array(len(tx_nodes))
        if scalar:
            successes = 0
            for b in tx_nodes:
                busy[b] = True
                for v in network.neighbors[b]:
                    busy[v] = True
            for i, b in enumerate(tx_nodes):
                if b in succeeded:
                    stage[b] = 0
                    successes += 1
                else:
                    stage[b] = min(int(stage[b]) + 1, max_stage)
                self._backoff[b] = int(draws[i] * config.window(int(stage[b])))
            counters.mac_tx_success += successes
            counters.mac_tx_collisions += len(tx_nodes) - successes
            return successes
        tx = np.asarray(tx_nodes, dtype=np.int64)
        busy[tx] = True
        busy[network.indices[network.csr_slots(tx)[0]]] = True
        succ = np.fromiter(
            (b in succeeded for b in tx_nodes), dtype=bool, count=len(tx_nodes)
        )
        stage[tx[succ]] = 0
        failed = tx[~succ]
        stage[failed] = np.minimum(stage[failed] + 1, max_stage)
        windows = np.minimum(
            np.left_shift(np.int64(config.cw_min), stage[tx]), config.cw_max
        )
        self._backoff[tx] = (draws * windows).astype(np.int64)
        successes = int(succ.sum())
        counters.mac_tx_success += successes
        counters.mac_tx_collisions += len(tx_nodes) - successes
        return successes

    # -- capture-aware resolution -------------------------------------------
    #
    # Without capture the base kernels apply unchanged (a collided slot
    # is simply lost). With a capture threshold the strongest of several
    # transmitters can still win a receiver, which needs per-receiver
    # transmitter groups rather than the base kernel's hear-counts.

    def _resolve_vectorized(self, actions, result: RoundResult) -> None:
        if not self.config.capture:
            super()._resolve_vectorized(actions, result)
            return
        network = self.network
        n = network.n
        adversary = self.adversary
        bs = np.fromiter(result.broadcasters, dtype=np.int64, count=len(actions))

        if adversary.needs_begin_round:
            adversary.begin_round(self.round_index, bs)
        smask = adversary.sender_mask(bs)
        faulty = bs[smask] if smask is not None else bs[:0]
        result.faulty_senders = faulty.tolist()

        flat, lens = network.csr_slots(bs)
        heard = network.indices[flat]
        senders = np.repeat(bs, lens)

        if adversary.has_edge_dynamics:
            alive = adversary.edge_alive(bs, flat)
            if alive is not None:
                heard = heard[alive]
                senders = senders[alive]

        listening = np.ones(n, dtype=bool)
        listening[bs] = False  # a transmitting node cannot receive
        keep = listening[heard]
        heard = heard[keep]
        senders = senders[keep]

        if heard.size == 0:
            unique = heard
            unique_senders = senders
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
            receivers = h[ends]  # ascending receiver ids
            strongest = s[ends]
            multi = sizes >= 2
            p_top = p[ends]
            p_second = np.where(multi, p[np.maximum(ends - 1, 0)], 0.0)
            captured = multi & (p_top >= self.config.capture * p_second)
            self.counters.mac_captures += int(captured.sum())
            lost = multi & ~captured
            result.collision_receivers = receivers[lost].tolist()
            unique = receivers[~lost]
            unique_senders = strongest[~lost]

        self._fill_vectorized(actions, result, faulty, unique, unique_senders)

    def _resolve_scalar(self, actions, result: RoundResult) -> None:
        if not self.config.capture:
            super()._resolve_scalar(actions, result)
            return
        adversary = self.adversary
        broadcasters = result.broadcasters

        if adversary.needs_begin_round:
            adversary.begin_round(
                self.round_index, np.asarray(broadcasters, dtype=np.int64)
            )

        faulty: set[int] = set()
        smask = adversary.sender_mask(broadcasters)
        if smask is not None:
            result.faulty_senders = [
                b for b, hit in zip(broadcasters, smask) if hit
            ]
            faulty = set(result.faulty_senders)

        neighbors = self.network.neighbors
        alive = (
            adversary.edge_alive(np.asarray(broadcasters, dtype=np.int64))
            if adversary.has_edge_dynamics
            else None
        )
        heard_by: dict[int, list[int]] = {}
        slot = 0
        for b in broadcasters:
            for v in neighbors[b]:
                if (alive is None or alive[slot]) and v not in actions:
                    heard_by.setdefault(v, []).append(b)
                slot += 1

        power = self._power
        ratio = self.config.capture
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
                    result.collision_receivers.append(v)
                    continue
            if winner in faulty:
                result.silenced_receivers.append(v)
                result.silenced_senders.append(winner)
                continue
            eligible.append(v)
            eligible_senders.append(winner)
        self._fill_scalar(actions, result, eligible, eligible_senders)
