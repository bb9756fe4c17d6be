"""The schedule layer against per-node protocols built from the same spawns.

Each single-message algorithm runs three times: as it ships, on a
:class:`ScheduleLayer` over per-node sources and on one over a
:class:`~repro.util.rng.StreamBank` (the bank's size threshold patched
above n and to 0), and on a :class:`~per_node.NodeLayer` of its
per-node protocols (``tests/per_node.py``), which the test hands the
same run driver with the same seed, so they draw the same spawns (one
child per node, then the channel's). Equal final streams show that all
three made the same draws; the RLNC schedules are checked the same way
in ``test_rlnc_broadcast.py``.
"""

import contextlib
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import base, schedule
from repro.algorithms.decay import decay_broadcast
from repro.algorithms.fastbc import fastbc_broadcast
from repro.algorithms.repetition import repeated_fastbc_broadcast
from repro.algorithms.robust_fastbc import robust_fastbc_broadcast
from repro.algorithms.schedule import ScheduleLayer
from repro.core.engine import Simulator
from repro.core.faults import AdversaryConfig, FaultConfig
from repro.gbst.gbst import build_gbst
from repro.mac.config import MacConfig
from repro.timeline import Timeline, TimelineConfig
from repro.timeline.capture import capture_timeline
from repro.topologies.registry import make_topology
from repro.util.rng import StreamBank

from per_node import (
    DecayProtocol,
    NodeLayer,
    RepeatedFastBCProtocol,
    make_fastbc_protocols,
    make_robust_fastbc_protocols,
)


def _decay(network, source):
    return [
        DecayProtocol(network.n, source.spawn(), informed=v == network.source)
        for v in network.nodes()
    ]


def _repeated(network, source):
    tree = build_gbst(network).tree
    return [
        RepeatedFastBCProtocol(
            v, tree, source.spawn(), 3, informed=v == network.source
        )
        for v in network.nodes()
    ]


#: name -> (the algorithm, its parameters, what makes its per-node reference)
_SCHEDULES = {
    "decay": (decay_broadcast, {}, _decay),
    "fastbc": (
        fastbc_broadcast, {},
        make_fastbc_protocols,
    ),
    "fastbc-pure-wave": (
        fastbc_broadcast, {"decay_interleave": False},
        lambda network, source: make_fastbc_protocols(
            network, source, decay_interleave=False
        ),
    ),
    "robust_fastbc": (
        robust_fastbc_broadcast, {},
        make_robust_fastbc_protocols,
    ),
    "robust_fastbc-block2": (
        robust_fastbc_broadcast, {"block": 2, "round_multiplier": 4},
        lambda network, source: make_robust_fastbc_protocols(
            network, source, block=2, round_multiplier=4
        ),
    ),
    "robust_fastbc-block1-pure-wave": (
        robust_fastbc_broadcast,
        {"block": 1, "round_multiplier": 2, "decay_interleave": False},
        lambda network, source: make_robust_fastbc_protocols(
            network, source, block=1, round_multiplier=2,
            decay_interleave=False,
        ),
    ),
    "repeated_fastbc": (repeated_fastbc_broadcast, {"repeat": 3}, _repeated),
}
_NOISE = {
    "sender": {"faults": FaultConfig.sender(0.3)},
    "receiver": {"faults": FaultConfig.receiver(0.3)},
    "gilbert_elliott": {"adversary": AdversaryConfig("gilbert_elliott", {})},
    "edge_churn": {"adversary": AdversaryConfig("edge_churn", {"p_down": 0.2})},
}


@contextlib.contextmanager
def recorded_simulators():
    """Yield the simulators that ``run_broadcast`` builds meanwhile."""
    built = []

    class Recording(Simulator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    with mock.patch.object(base, "Simulator", Recording):
        yield built


#: how a run draws its coins: per-node protocols (the reference), or the
#: schedule layer over per-node sources or over one stream bank
_ARMS = ("per-node", "sources", "bank")


def _run(arm, name, network, noise, channel, timeline, seed, max_rounds):
    """One run: outcome, timeline dict and every node's final stream state."""
    broadcast, params, build = _SCHEDULES[name]
    capture = (
        capture_timeline(TimelineConfig()) if timeline else contextlib.nullcontext()
    )
    bank_min_n = 0 if arm == "bank" else network.n + 1
    with recorded_simulators() as built, capture as slot, mock.patch.object(
        schedule, "BANK_MIN_N", bank_min_n
    ):
        if arm == "per-node":
            # max_rounds is given, so the driver sizes no budget
            outcome = base.run_broadcast(
                network,
                lambda source, recorder: NodeLayer(build(network, source)),
                noise.get("faults", FaultConfig.faultless()),
                seed, max_rounds, None, adversary=noise.get("adversary"),
                channel=channel,
            )
        else:
            outcome = broadcast(
                network, rng=seed, max_rounds=max_rounds, channel=channel,
                **noise, **params,
            )
    (sim,) = built
    if arm == "per-node":
        assert isinstance(sim.layer, NodeLayer)
        states = [protocol.rng._rng.getstate() for protocol in sim.layer.protocols]
    elif arm == "sources":
        assert isinstance(sim.layer, ScheduleLayer)
        assert sim.layer.bank is None
        states = [rng._rng.getstate() for rng in sim.layer.rngs]
    else:
        assert isinstance(sim.layer, ScheduleLayer)
        assert isinstance(sim.layer.rngs, StreamBank)
        states = [sim.layer.rngs.getstate(v) for v in network.nodes()]
    recorded = (
        Timeline.from_recorder(slot.recorder).to_dict() if timeline else None
    )
    return outcome, recorded, states


class TestScheduleLayerMatchesPerNodeProtocols:
    @settings(
        max_examples=120,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        name=st.sampled_from(sorted(_SCHEDULES)),
        topology=st.sampled_from(["path", "grid", "gnp", "star", "caterpillar"]),
        n=st.integers(2, 48),
        noise=st.sampled_from(sorted(_NOISE)),
        contention=st.booleans(),
        timeline=st.booleans(),
        seed=st.integers(0, 2**16),
        max_rounds=st.integers(1, 800),
    )
    def test_outcome_counters_timeline_and_streams_match(
        self, name, topology, n, noise, contention, timeline, seed, max_rounds
    ):
        network = make_topology(topology, n, seed)
        channel = MacConfig() if contention else None
        reference, *layers = (
            _run(arm, name, network, _NOISE[noise], channel, timeline,
                 seed, max_rounds)
            for arm in _ARMS
        )
        for layer in layers:
            assert layer[0] == reference[0]
            assert layer[1] == reference[1]
            assert layer[2] == reference[2]

    def test_large_grid_waves_match(self):
        """Ranks reach 3 on a 1024-node grid, so many wave buckets fire."""
        network = make_topology("grid", 1024, 0)
        for name in ("fastbc", "robust_fastbc-block2", "repeated_fastbc"):
            reference, *layers = (
                _run(arm, name, network, _NOISE["receiver"], None, False,
                     5, 400)
                for arm in _ARMS
            )
            for layer in layers:
                assert layer == reference, name
