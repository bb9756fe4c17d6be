"""Tests for the channel and simulator: exact collision and fault semantics."""

import networkx as nx
import numpy as np
import pytest

from repro.core.engine import Channel, RoundResult, Simulator
from repro.core.faults import FaultConfig
from repro.core.network import RadioNetwork
from repro.core.trace import TraceRecorder
from repro.util.rng import RandomSource

from per_node import MessagePacket, NodeLayer, NodeProtocol

MSG = MessagePacket(0)


def nodes(*ids: int) -> np.ndarray:
    """One round's broadcasters, as the channel takes them."""
    return np.array(ids, dtype=np.int64)


def star(n_leaves: int) -> RadioNetwork:
    return RadioNetwork(nx.star_graph(n_leaves), source=0)


def path(n: int) -> RadioNetwork:
    return RadioNetwork(nx.path_graph(n), source=0)


class TestCollisionSemantics:
    """The heart of the radio model: receive iff exactly one neighbor sends."""

    def test_single_broadcaster_delivers_to_all_neighbors(self):
        channel = Channel(star(4))
        result = channel.transmit(nodes(0))
        assert result.receivers.tolist() == [1, 2, 3, 4]
        assert result.senders.tolist() == [0, 0, 0, 0]
        assert result.receivers.dtype == result.senders.dtype == np.int64

    def test_two_broadcasters_collide_at_common_neighbor(self):
        # path 0-1-2: both endpoints send; middle hears 2 -> collision
        channel = Channel(path(3))
        result = channel.transmit(nodes(0, 2))
        assert result.receivers.size == 0
        assert result.collision_receivers.tolist() == [1]

    def test_broadcaster_does_not_receive(self):
        # path 0-1: both broadcast; neither receives
        channel = Channel(path(2))
        result = channel.transmit(nodes(0, 1))
        assert result.receivers.size == 0
        assert result.collision_receivers.size == 0

    def test_no_broadcasters_nothing_happens(self):
        channel = Channel(path(3))
        result = channel.transmit(nodes())
        assert result.receivers.size == 0
        assert channel.counters.rounds == 1

    def test_non_neighbor_does_not_receive(self):
        channel = Channel(path(4))
        result = channel.transmit(nodes(0))
        assert result.receivers.tolist() == [1]

    def test_two_disjoint_broadcasts_both_deliver(self):
        # path 0-1-2-3: 0 and 3 send; 1 and 2 each hear exactly one
        channel = Channel(path(4))
        result = channel.transmit(nodes(0, 3))
        got = dict(zip(result.receivers.tolist(), result.senders.tolist()))
        assert got == {1: 0, 2: 3}

    def test_round_counter_advances(self):
        channel = Channel(path(2))
        for expected in range(3):
            assert channel.round_index == expected
            channel.transmit(nodes())


class TestRoundResult:
    def test_equality_compares_every_field(self):
        def make(round_index=3):
            return RoundResult(
                round_index, nodes(0, 2), receivers=nodes(1), senders=nodes(0)
            )

        assert make() == make()
        assert make() != make(round_index=4)
        for name in RoundResult.__slots__[1:]:
            other = make()
            setattr(other, name, nodes(5))
            assert make() != other, name

    def test_empty_fields_are_shared_and_read_only(self):
        result = Channel(path(3)).transmit(nodes())
        assert result.receivers is result.collision_receivers
        assert result.receivers.dtype == np.int64
        assert not result.receivers.flags.writeable


class TestSenderFaults:
    def test_faulty_sender_silences_all_receivers(self):
        # p close to 1: every transmission is noise
        channel = Channel(star(5), FaultConfig.sender(0.999999), rng=1)
        result = channel.transmit(nodes(0))
        assert result.receivers.size == 0
        assert result.faulty_senders.tolist() == [0]
        assert result.noise_receivers.tolist() == [1, 2, 3, 4, 5]
        assert result.silenced_senders.tolist() == [0] * 5

    def test_sender_fault_is_all_or_nothing_per_round(self):
        """A faulty sender delivers to none of its neighbors; a healthy one
        delivers to all listening singleton neighbors."""
        channel = Channel(star(6), FaultConfig.sender(0.5), rng=7)
        for _ in range(50):
            result = channel.transmit(nodes(0))
            n_delivered = len(result.receivers)
            assert n_delivered in (0, 6)

    def test_empirical_sender_fault_rate(self):
        channel = Channel(path(2), FaultConfig.sender(0.3), rng=3)
        failures = 0
        trials = 4000
        for _ in range(trials):
            result = channel.transmit(nodes(0))
            failures += not result.receivers.size
        assert 0.26 < failures / trials < 0.34

    def test_faultless_config_never_faults(self):
        channel = Channel(path(2), FaultConfig.faultless(), rng=3)
        for _ in range(200):
            assert len(channel.transmit(nodes(0)).receivers) == 1


class TestReceiverFaults:
    def test_receiver_faults_independent_per_receiver(self):
        """Unlike sender faults, receiver faults can split a star's leaves."""
        channel = Channel(star(6), FaultConfig.receiver(0.5), rng=5)
        saw_partial = False
        for _ in range(100):
            result = channel.transmit(nodes(0))
            if 0 < len(result.receivers) < 6:
                saw_partial = True
                break
        assert saw_partial

    def test_empirical_receiver_fault_rate(self):
        channel = Channel(path(2), FaultConfig.receiver(0.3), rng=11)
        received = 0
        trials = 4000
        for _ in range(trials):
            received += bool(channel.transmit(nodes(0)).receivers.size)
        assert 0.66 < received / trials < 0.74

    def test_receiver_fault_not_applied_on_collision(self):
        """Collisions already lose the packet; fault counters must not
        double-count them."""
        channel = Channel(path(3), FaultConfig.receiver(0.9), rng=2)
        for _ in range(100):
            channel.transmit(nodes(0, 2))
        assert channel.counters.receiver_faults == 0
        assert channel.counters.collisions == 100


class TestCounters:
    def test_counts_accumulate(self):
        channel = Channel(path(3))
        channel.transmit(nodes(0))
        channel.transmit(nodes(0, 2))
        c = channel.counters
        assert c.rounds == 2
        assert c.broadcasts == 3
        assert c.deliveries == 1  # round 2 collides at node 1
        assert c.collisions == 1

    def test_as_dict(self):
        channel = Channel(path(2))
        channel.transmit(nodes(0))
        d = channel.counters.as_dict()
        assert d["rounds"] == 1 and d["deliveries"] == 1

    def test_str(self):
        assert "rounds=0" in str(Channel(path(2)).counters)


class TestTracing:
    def test_trace_records_events(self):
        trace = TraceRecorder(enabled=True)
        channel = Channel(path(3), observers=[trace])
        channel.transmit(nodes(0))
        kinds = {e.kind for e in trace.events}
        assert kinds == {"broadcast", "deliver"}
        # events carry plain ints, never numpy scalars
        assert {type(e.node) for e in trace.events} == {int}
        assert [e.peer for e in trace.events_of_kind("deliver")] == [0]
        assert type(trace.events_of_kind("deliver")[0].peer) is int

    def test_trace_disabled_records_nothing(self):
        trace = TraceRecorder(enabled=False)
        channel = Channel(path(3), observers=[trace])
        channel.transmit(nodes(0))
        assert len(trace) == 0

    def test_trace_max_events_cap(self):
        trace = TraceRecorder(enabled=True, max_events=1)
        channel = Channel(path(3), observers=[trace])
        with pytest.warns(RuntimeWarning, match="1-event cap"):
            channel.transmit(nodes(0))
        assert len(trace) == 1
        assert trace.dropped == 1

    def test_event_filters(self):
        trace = TraceRecorder(enabled=True)
        channel = Channel(path(3), observers=[trace])
        channel.transmit(nodes(0))
        channel.transmit(nodes(0, 2))
        assert len(trace.events_in_round(0)) == 2
        assert len(trace.events_of_kind("collision")) == 1
        trace.clear()
        assert len(trace) == 0


class _Flooder(NodeProtocol):
    """Test protocol: broadcast every round once informed."""

    def __init__(self, informed: bool = False):
        self.informed = informed
        self.active = informed

    def act(self, round_index):
        return MSG if self.informed else None

    def on_receive(self, round_index, packet, sender):
        self.informed = True
        self.active = True

    def is_done(self):
        return self.informed


class _Silent(NodeProtocol):
    def __init__(self):
        self.received = []
        self.active = False

    def act(self, round_index):  # pragma: no cover - never called while inactive
        return None

    def on_receive(self, round_index, packet, sender):
        self.received.append((round_index, packet, sender))


class TestSimulator:
    def test_flood_on_path(self):
        net = path(4)
        protocols = [_Flooder(informed=(i == 0)) for i in range(4)]
        sim = Simulator(net, NodeLayer(protocols))
        rounds = sim.run(max_rounds=100)
        assert sim.all_done()
        # a single flooder chain crosses one hop per round
        assert rounds == 3

    def test_inactive_protocols_are_skipped(self):
        net = path(2)
        flooder, silent = _Flooder(informed=True), _Silent()
        sim = Simulator(net, NodeLayer([flooder, silent]))
        sim.step()
        assert silent.received == [(0, MSG, 0)]

    def test_run_respects_budget(self):
        # the silent node hears the flooder every round but is never done,
        # so the layer never finishes and the run stops at its budget
        sim = Simulator(path(2), NodeLayer([_Flooder(informed=True), _Silent()]))
        executed = sim.run(max_rounds=5)
        assert executed == 5
        assert not sim.all_done()

    def test_negative_budget_rejected(self):
        sim = Simulator(path(2), NodeLayer([_Flooder(True), _Flooder()]))
        with pytest.raises(ValueError):
            sim.run(max_rounds=-1)

    def test_determinism_same_seed(self):
        def run_once(seed):
            net = star(8)
            protocols = [_Flooder(informed=(i == 0)) for i in range(9)]
            sim = Simulator(
                net, NodeLayer(protocols), FaultConfig.receiver(0.5), rng=seed
            )
            sim.run(max_rounds=500)
            return sim.round_index

        assert run_once(42) == run_once(42)

    def test_counters_exposed(self):
        sim = Simulator(path(2), NodeLayer([_Flooder(True), _Silent()]))
        sim.step()
        assert sim.counters.deliveries == 1
