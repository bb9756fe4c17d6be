"""Tests for RLNC multi-message broadcast (Lemmas 12-13)."""

import contextlib
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import base
from repro.algorithms.multi import rlnc_broadcast
from repro.algorithms.multi.rlnc_broadcast import (
    PER_NODE_MAX_N,
    RLNCGossipLayer,
    rlnc_decay_broadcast,
    rlnc_dense_wave_broadcast,
    rlnc_robust_fastbc_broadcast,
)
from repro.coding.rlnc import RLNCEncoder
from repro.core.engine import Simulator
from repro.core.faults import AdversaryConfig, FaultConfig
from repro.gbst.gbst import build_gbst
from repro.mac.config import MacConfig
from repro.telemetry.metrics import METRICS
from repro.timeline import Timeline, TimelineConfig
from repro.timeline.capture import capture_timeline
from repro.topologies.basic import caterpillar, grid, path, star
from repro.topologies.random_graphs import gnp
from repro.util.rng import RandomSource

from per_node import (
    DecayProtocol,
    DenseWaveProtocol,
    NodeLayer,
    RLNCGossipProtocol,
    RobustFastBCProtocol,
)


def _decay_pattern(network, v, rng):
    return DecayProtocol(network.n, rng, informed=True)


def _robust_fastbc_pattern(network, v, rng):
    return RobustFastBCProtocol(v, build_gbst(network).tree, rng, informed=True)


def _dense_wave_pattern(network, v, rng):
    return DenseWaveProtocol(v, build_gbst(network).tree, rng, informed=True)


#: name -> (the algorithm, the per-node protocol of its schedule, built
#: with ``informed=True`` as each node's gossip pattern)
_ALGORITHMS = {
    "rlnc_decay": (rlnc_decay_broadcast, _decay_pattern),
    "rlnc_robust_fastbc": (rlnc_robust_fastbc_broadcast, _robust_fastbc_pattern),
    "rlnc_dense_wave": (rlnc_dense_wave_broadcast, _dense_wave_pattern),
}


@contextlib.contextmanager
def shipped_gossip():
    """Run gossip as the algorithms do; yields the simulators they build.

    On more than :data:`PER_NODE_MAX_N` nodes that is the batched
    :class:`RLNCGossipLayer`, on fewer the layer of one encoder per node.
    """
    built = []

    class Recording(Simulator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    with mock.patch.object(base, "Simulator", Recording):
        yield built


@contextlib.contextmanager
def per_node_gossip(make_pattern):
    """Run gossip on the per-node reference; yields its simulators.

    Swaps the algorithms' gossip layer factory for one that builds one
    :class:`RLNCGossipProtocol` per node over the same streams: the
    payload messages, one child per node in node order, then (drawn by
    the driver) the channel's child. It ignores the schedule and runs
    node ``v`` on ``make_pattern(network, v, its stream)``, the per-node
    protocol of the algorithm under test.
    """

    def gossip_layer(network, schedule, k, payload_length, messages):
        def make_layer(source, recorder):
            loaded = messages
            if loaded is None:
                loaded = [
                    source.bytes_array(payload_length).tobytes()
                    if payload_length else b""
                    for _ in range(k)
                ]
            protocols = [
                RLNCGossipProtocol(
                    make_pattern(network, v, source.spawn()),
                    RLNCEncoder(
                        k,
                        payload_length,
                        messages=loaded if v == network.source else None,
                    ),
                )
                for v in network.nodes()
            ]
            for protocol in protocols:
                protocol.timeline = recorder
            return NodeLayer(protocols)

        return make_layer

    with shipped_gossip() as built, mock.patch.object(
        rlnc_broadcast, "_gossip_layer", gossip_layer
    ):
        yield built


def _decoder_state(decoder, rng):
    r = decoder.rank
    return (r, decoder._basis[:r].tolist(), decoder._pivot_col[:r].tolist(),
            rng._rng.getstate())


def node_states(layer):
    """Per node: (rank, basis rows, pivot columns, stream state)."""
    if isinstance(layer, RLNCGossipLayer):
        bank = layer.bank
        return [
            (int(r), bank.basis[v, :r].tolist(), bank.pivot_col[v, :r].tolist(),
             rng._rng.getstate())
            for (v, r), rng in zip(enumerate(bank.rank.tolist()),
                                   layer.pattern.rngs)
        ]
    if isinstance(layer, NodeLayer):
        return [
            _decoder_state(protocol.encoder.decoder, protocol.rng)
            for protocol in layer.protocols
        ]
    return [
        _decoder_state(encoder.decoder, rng)
        for encoder, rng in zip(layer.encoders, layer.pattern.rngs)
    ]


def decoded(layer, node):
    if isinstance(layer, RLNCGossipLayer):
        return layer.bank.decode_messages(node)
    if isinstance(layer, NodeLayer):
        return layer.protocols[node].encoder.decode_messages()
    return layer.encoders[node].decode_messages()


class TestRLNCDecay:
    def test_faultless_star(self):
        outcome = rlnc_decay_broadcast(star(8), k=4, rng=1)
        assert outcome.success
        assert outcome.k == 4

    def test_faultless_path(self):
        outcome = rlnc_decay_broadcast(path(12), k=4, rng=2)
        assert outcome.success

    def test_faultless_grid(self):
        outcome = rlnc_decay_broadcast(grid(4, 4), k=3, rng=3)
        assert outcome.success

    @pytest.mark.parametrize("faults", [
        FaultConfig.sender(0.3), FaultConfig.receiver(0.3),
    ], ids=str)
    def test_noisy_completes(self, faults):
        outcome = rlnc_decay_broadcast(path(10), k=4, faults=faults, rng=4)
        assert outcome.success

    def test_end_to_end_payload_integrity(self):
        """With payloads on, every node must decode the exact messages,
        on both shipped layers and on the per-node reference."""
        k, length = 3, 8
        rng = RandomSource(7)
        messages = [bytes(rng.bytes_array(length).tobytes()) for _ in range(k)]
        for net in (star(20), star(12)):
            for gossip in (shipped_gossip(), per_node_gossip(_decay_pattern)):
                with gossip as built:
                    outcome = rlnc_decay_broadcast(
                        net, k=k, rng=8, payload_length=length,
                        messages=messages,
                    )
                assert outcome.success
                layer = built[0].layer
                for v in net.nodes():
                    assert decoded(layer, v) == messages, (type(layer), v)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            rlnc_decay_broadcast(path(4), k=0)

    def test_rounds_grow_linearly_in_k(self):
        """Lemma 12 shape: the k-dependence is ~k log n."""
        small = rlnc_decay_broadcast(star(16), k=4, rng=9)
        large = rlnc_decay_broadcast(star(16), k=16, rng=9)
        assert small.success and large.success
        # 4x the messages should cost >= 2x the rounds (additive terms
        # shrink the ratio below 4 at this scale)
        assert large.rounds >= 2 * small.rounds

    def test_determinism(self):
        a = rlnc_decay_broadcast(path(8), k=3, rng=11)
        b = rlnc_decay_broadcast(path(8), k=3, rng=11)
        assert a.rounds == b.rounds

    def test_outcome_metrics(self):
        outcome = rlnc_decay_broadcast(path(6), k=2, rng=12)
        assert outcome.rounds_per_message == outcome.rounds / 2
        assert outcome.completed_nodes == outcome.total_nodes == 6


class TestRLNCRobustFastBC:
    def test_faultless_path(self):
        outcome = rlnc_robust_fastbc_broadcast(path(12), k=3, rng=1)
        assert outcome.success

    def test_noisy_path(self):
        outcome = rlnc_robust_fastbc_broadcast(
            path(12), k=3, faults=FaultConfig.receiver(0.3), rng=2
        )
        assert outcome.success

    def test_noisy_sender_faults(self):
        outcome = rlnc_robust_fastbc_broadcast(
            path(12), k=3, faults=FaultConfig.sender(0.3), rng=3
        )
        assert outcome.success

    def test_gnp(self):
        outcome = rlnc_robust_fastbc_broadcast(
            gnp(24, 0.2, rng=4), k=3, faults=FaultConfig.receiver(0.2), rng=5
        )
        assert outcome.success

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            rlnc_robust_fastbc_broadcast(path(4), k=-1)


_NOISE = {
    "sender": {"faults": FaultConfig.sender(0.3)},
    "receiver": {"faults": FaultConfig.receiver(0.3)},
    "gilbert_elliott": {"adversary": AdversaryConfig("gilbert_elliott", {})},
    "edge_churn": {"adversary": AdversaryConfig("edge_churn", {"p_down": 0.2})},
}
_RLNC_COUNTERS = (
    "repro_rlnc_receives_total",
    "repro_rlnc_innovative_total",
    "repro_rlnc_decodes_total",
)


def _network(topology, n, seed):
    if topology == "path":
        return path(n)
    if topology == "grid":
        return grid(2, (n + 1) // 2)
    if topology == "star":
        return star(n - 1)
    if topology == "caterpillar":
        return caterpillar((n + 1) // 2, 1)
    return gnp(n, 0.3, rng=seed)


def _gossip(per_node, algorithm, network, k, payload_length, noise, channel,
            timeline, seed, max_rounds):
    """One run on one layer: outcome, timeline dict, counter deltas, states."""
    counters = [METRICS.counter(name) for name in _RLNC_COUNTERS]
    before = [counter.value for counter in counters]
    capture = (
        capture_timeline(TimelineConfig()) if timeline else contextlib.nullcontext()
    )
    broadcast, make_pattern = _ALGORITHMS[algorithm]
    gossip = per_node_gossip(make_pattern) if per_node else shipped_gossip()
    with gossip as built, capture as slot:
        outcome = broadcast(
            network, k, rng=seed, payload_length=payload_length,
            max_rounds=max_rounds, channel=channel, **_NOISE[noise],
        )
    if per_node:
        expected = NodeLayer
    elif network.n > PER_NODE_MAX_N:
        expected = RLNCGossipLayer
    else:
        expected = rlnc_broadcast._EncoderLayer
    assert type(built[0].layer) is expected
    recorded = (
        Timeline.from_recorder(slot.recorder).to_dict() if timeline else None
    )
    deltas = [counter.value - was for counter, was in zip(counters, before)]
    return outcome, recorded, deltas, node_states(built[0].layer)


class TestBatchedLayerMatchesPerNodeReference:
    """Both shipped layers against per-node RLNCGossipProtocols, same streams.

    Up to :data:`PER_NODE_MAX_N` nodes the algorithms gossip through one
    encoder per node, above it through the bank. Equal final streams
    show that the layer's firing step drew the coins, and the weights,
    that the per-node protocols draw.
    """

    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        algorithm=st.sampled_from(sorted(_ALGORITHMS)),
        topology=st.sampled_from(["path", "grid", "gnp", "star", "caterpillar"]),
        # both sides of PER_NODE_MAX_N: the encoder layer and the bank
        n=st.integers(2, 24),
        k=st.integers(1, 20),
        payload_length=st.sampled_from([0, 1, 5]),
        noise=st.sampled_from(sorted(_NOISE)),
        contention=st.booleans(),
        timeline=st.booleans(),
        seed=st.integers(0, 2**16),
        max_rounds=st.integers(1, 600),
    )
    def test_outcome_counters_timeline_and_bases_match(
        self, algorithm, topology, n, k, payload_length, noise, contention,
        timeline, seed, max_rounds,
    ):
        network = _network(topology, n, seed)
        channel = MacConfig() if contention else None
        was = METRICS.enabled
        METRICS.enable()
        try:
            runs = [
                _gossip(per_node, algorithm, network, k, payload_length, noise,
                        channel, timeline, seed, max_rounds)
                for per_node in (False, True)
            ]
        finally:
            METRICS.enabled = was
        (outcome, recorded, deltas, states), reference = runs
        assert outcome == reference[0]
        assert recorded == reference[1]
        assert deltas == reference[2]
        assert states == reference[3]
        # every delivery and each of the source's k loads is one reception
        assert deltas[0] == outcome.counters.deliveries + k
        assert deltas[1] == sum(state[0] for state in states)
