"""Property test: an event trace does not depend on the channel kernel.

A :class:`~repro.core.trace.TraceRecorder` is a round observer: it derives
its events from the :class:`~repro.core.engine.RoundResult` both kernels
fill identically. So over sampled topologies, faults and adversaries, on
the default channel and on the contention MAC with capture, the vectorized
kernel must record exactly the scalar reference's event stream — and a
sampled recorder must keep the same subset and count the same
``sampled_out``. Attaching a recorder never moves a round off the
vectorized kernel.
"""

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import Channel
from repro.core.faults import AdversaryConfig, FaultConfig
from repro.core.trace import TraceRecorder
from repro.mac import ContentionChannel, MacConfig
from repro.topologies import basic
from repro.topologies.registry import make_topology

_ROUNDS = 12


@st.composite
def _noise(draw):
    """``(faults, adversary)``: iid coins or one stateful adversary."""
    kind = draw(
        st.sampled_from(
            ["faultless", "sender", "receiver", "gilbert_elliott",
             "budgeted_jammer", "edge_churn"]
        )
    )
    p = draw(st.floats(min_value=0.05, max_value=0.8))
    if kind == "sender":
        return FaultConfig.sender(p), None
    if kind == "receiver":
        return FaultConfig.receiver(p), None
    if kind == "gilbert_elliott":
        return FaultConfig.faultless(), AdversaryConfig(kind, {"p_bad": p})
    if kind == "budgeted_jammer":
        return FaultConfig.faultless(), AdversaryConfig(
            kind, {"per_round": 2, "budget": 20, "policy": "frontier"}
        )
    if kind == "edge_churn":
        return FaultConfig.faultless(), AdversaryConfig(kind, {"p_down": p})
    return FaultConfig.faultless(), None


_NETWORKS = st.builds(
    make_topology,
    st.sampled_from(["gnp", "grid", "path", "star", "cycle", "layered"]),
    st.integers(min_value=4, max_value=80),
    st.integers(min_value=0, max_value=1000),
)


def _traces(channel_cls, network, faults, adversary, seed, reference, **extra):
    """Drive one channel; return its (full, sampled at 0.3) recorders.

    ``transmit`` runs with the threshold pinned to 0, so every round takes
    the vectorized kernel; ``reference`` drives ``transmit_reference``.
    """
    full = TraceRecorder()
    sampled = TraceRecorder(sample=0.3, sample_seed=seed)
    channel = channel_cls(
        network, faults, rng=seed, observers=[full, sampled],
        adversary=adversary, **extra,
    )
    transmit = channel.transmit_reference if reference else channel.transmit
    pick = random.Random(seed)
    with mock.patch.object(Channel, "VECTORIZE_MIN_WORK", 0):
        for _ in range(_ROUNDS):
            count = pick.randint(0, network.n)
            chosen = sorted(pick.sample(range(network.n), count))
            transmit(np.array(chosen, dtype=np.int64))
    return full, sampled


def _assert_kernel_independent(channel_cls, network, noise, seed, **extra):
    faults, adversary = noise
    full_v, sampled_v = _traces(
        channel_cls, network, faults, adversary, seed, False, **extra
    )
    full_s, sampled_s = _traces(
        channel_cls, network, faults, adversary, seed, True, **extra
    )
    assert full_v.events == full_s.events
    assert sampled_v.events == sampled_s.events
    assert sampled_v.sampled_out == sampled_s.sampled_out
    assert len(sampled_v) + sampled_v.sampled_out == len(full_v)


@given(network=_NETWORKS, noise=_noise(), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_vectorized_trace_matches_the_scalar_reference(network, noise, seed):
    _assert_kernel_independent(Channel, network, noise, seed)


@given(
    network=_NETWORKS,
    noise=_noise(),
    seed=st.integers(0, 2**31 - 1),
    capture=st.sampled_from([1.0, 1.5, 4.0]),
    sense=st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_mac_capture_trace_matches_the_scalar_reference(
    network, noise, seed, capture, sense
):
    config = MacConfig(cw_min=2, cw_max=16, sense=sense, capture=capture)
    _assert_kernel_independent(
        ContentionChannel, network, noise, seed, config=config
    )


def test_tracing_keeps_the_vectorized_kernel():
    trace = TraceRecorder()
    channel = Channel(basic.star(800), observers=[trace])

    def scalar(result):
        pytest.fail("a traced round fell back to the scalar kernel")

    channel._resolve_scalar = scalar
    channel.transmit(np.array([0], dtype=np.int64))
    assert len(trace.events_of_kind("deliver")) == 800
