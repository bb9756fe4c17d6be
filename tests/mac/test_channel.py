"""Contention-channel slot semantics: sensing, backoff, hidden terminals,
capture — checked on small hand-analyzable topologies."""

import numpy as np
import pytest

from repro.core.errors import SimulationError
from repro.mac import ContentionChannel, MacConfig
from repro.mac.channel import MacCounters
from repro.topologies.basic import complete, path, star


def nodes(*ids: int) -> np.ndarray:
    """One slot's offerers, as the channel takes them."""
    return np.array(ids, dtype=np.int64)


def _channel(network, seed=0, **knobs):
    return ContentionChannel(network, rng=seed, config=MacConfig(**knobs))


class TestGate:
    def test_cw_one_transmits_immediately(self):
        # cw_min=1 means every counter draw is 0: a lone offerer reaches
        # the air on its first contending slot
        channel = _channel(path(2), cw_min=1, cw_max=1)
        result = channel.transmit(nodes(0))
        assert result.receivers.tolist() == [1]
        assert channel.counters.mac_transmissions == 1
        assert channel.counters.mac_tx_success == 1

    def test_counter_counts_down_across_slots(self):
        # one offerer eventually fires; until then it neither transmits
        # nor defers (nothing else is on the air)
        channel = _channel(path(2), seed=3, cw_min=8, cw_max=8)
        slots = 0
        while channel.counters.mac_transmissions == 0:
            channel.transmit(nodes(0))
            slots += 1
            assert slots <= 8, "counter must fire within cw_min slots"
        assert channel.counters.mac_defers == 0

    def test_sense_defers_after_busy_slot(self):
        # slot 1: node 0 transmits (cw_min=1). Slot 2: both 0 and its
        # neighbor 1 heard that energy, so with sensing on both defer.
        channel = _channel(path(3), cw_min=1, cw_max=1)
        channel.transmit(nodes(0))
        assert channel.counters.mac_transmissions == 1
        channel.transmit(nodes(0, 1))
        assert channel.counters.mac_defers == 2
        assert channel.counters.mac_transmissions == 1  # unchanged

    def test_sense_off_never_defers(self):
        channel = _channel(path(3), cw_min=1, cw_max=1, sense=False)
        channel.transmit(nodes(0))
        channel.transmit(nodes(0, 1))
        assert channel.counters.mac_defers == 0

    def test_invalid_offerer_raises(self):
        channel = _channel(path(3))
        with pytest.raises(SimulationError, match="outside"):
            channel.transmit(nodes(7))


class TestHiddenTerminal:
    def test_endpoints_destroy_the_shared_receiver(self):
        # path 0-1-2: with sensing off and a pinned window, both
        # endpoints transmit every slot and receiver 1 loses every slot
        channel = _channel(path(3), cw_min=1, cw_max=1, sense=False)
        for _ in range(6):
            result = channel.transmit(nodes(0, 2))
            assert result.receivers.size == 0
            assert result.collision_receivers.tolist() == [1]
        assert channel.counters.mac_defers == 0
        assert channel.counters.mac_tx_collisions == 12
        assert channel.counters.mac_tx_success == 0

    def test_sensing_does_not_save_the_shared_receiver(self):
        # with sensing ON the endpoints still collide whenever they fire:
        # they only ever defer on their OWN previous slot's energy (the
        # silent receiver never transmits), never on each other's —
        # that is exactly the hidden-terminal blind spot
        channel = _channel(path(3), cw_min=1, cw_max=1)
        for _ in range(10):
            result = channel.transmit(nodes(0, 2))
            assert result.receivers.size == 0
        assert channel.counters.mac_tx_collisions > 0
        assert channel.counters.mac_tx_success == 0
        # self-energy deferral shows up, confirming sensing was active
        assert channel.counters.mac_defers > 0


class TestBackoff:
    def test_stage_escalates_on_failure_and_clamps(self):
        # an isolated node's transmissions can never be delivered, so
        # every one of them fails and escalates the backoff stage until
        # it clamps at the ceiling
        channel = _channel(path(1), cw_min=2, cw_max=8, sense=False)
        max_stage = channel.config.max_stage
        assert max_stage == 2
        for _ in range(40):
            channel.transmit(nodes(0))
        assert channel._stage[0] == max_stage
        assert channel.counters.mac_tx_success == 0
        assert channel.counters.mac_tx_collisions > max_stage

    def test_success_resets_stage(self):
        channel = _channel(path(2), cw_min=2, cw_max=8, sense=False)
        # pretend prior failures drove node 0 to the window ceiling
        channel._stage[0] = channel.config.max_stage
        channel._backoff[0] = 0
        result = channel.transmit(nodes(0))
        assert result.receivers.tolist() == [1]
        assert channel.counters.mac_tx_success == 1
        assert channel._stage[0] == 0

    def test_backoff_counter_stays_within_window(self):
        channel = _channel(complete(6), seed=9, cw_min=4, cw_max=16)
        offers = nodes(*range(6))
        for _ in range(60):
            channel.transmit(offers)
            drawn = channel._backoff[channel._backoff >= 0]
            assert (drawn < channel.config.cw_max).all()


class TestCapture:
    def test_capture_ratio_one_rescues_every_collision(self):
        # threshold 1.0: the strongest transmitter always wins, so the
        # hidden-terminal slot delivers instead of collides
        channel = _channel(path(3), cw_min=1, cw_max=1, capture=1.0)
        result = channel.transmit(nodes(0, 2))
        assert result.receivers.tolist() == [1]
        assert result.senders.tolist() in ([0], [2])
        assert channel.counters.mac_captures == 1
        assert channel.counters.collisions == 0

    def test_huge_threshold_behaves_like_no_capture(self):
        channel = _channel(path(3), cw_min=1, cw_max=1, capture=1e9)
        result = channel.transmit(nodes(0, 2))
        assert result.receivers.size == 0
        assert result.collision_receivers.tolist() == [1]
        assert channel.counters.mac_captures == 0

    def test_capture_still_counts_winner_success(self):
        channel = _channel(star(4), cw_min=1, cw_max=1, capture=1.0)
        result = channel.transmit(nodes(1, 2))
        # leaves 1 and 2 collide at the hub; capture rescues one of them
        assert len(result.receivers) == 1
        assert channel.counters.mac_tx_success == 1
        assert channel.counters.mac_tx_collisions == 1


class TestCounters:
    def test_offers_split_into_transmissions_defers_and_countdowns(self):
        channel = _channel(complete(8), seed=2, cw_min=4, cw_max=32)
        offers = nodes(*range(8))
        for _ in range(50):
            channel.transmit(offers)
        c = channel.counters
        assert isinstance(c, MacCounters)
        assert c.mac_offers == 8 * 50
        assert c.mac_transmissions + c.mac_defers <= c.mac_offers
        assert c.mac_tx_success + c.mac_tx_collisions == c.mac_transmissions
        # the base counters describe actual transmissions, not offers
        assert c.broadcasts == c.mac_transmissions

    def test_as_dict_extends_base_counters(self):
        data = _channel(path(2)).counters.as_dict()
        for key in (
            "rounds",
            "deliveries",
            "mac_offers",
            "mac_defers",
            "mac_transmissions",
            "mac_tx_success",
            "mac_tx_collisions",
            "mac_captures",
        ):
            assert key in data
