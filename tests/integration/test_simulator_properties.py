"""Property-based integration tests on the simulation engine."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.decay import decay_broadcast
from repro.core.engine import Simulator
from repro.core.faults import FaultConfig, FaultModel
from repro.topologies.random_graphs import gnp, random_tree
from repro.util.rng import RandomSource

from per_node import DecayProtocol, NodeLayer


@given(
    n=st.integers(min_value=2, max_value=30),
    topo_seed=st.integers(min_value=0, max_value=100),
    run_seed=st.integers(min_value=0, max_value=100),
    p=st.sampled_from([0.0, 0.2, 0.5]),
    model=st.sampled_from([FaultModel.SENDER, FaultModel.RECEIVER]),
)
@settings(max_examples=30, deadline=None)
def test_decay_always_completes(n, topo_seed, run_seed, p, model):
    """Lemma 9 as a property: Decay completes on random trees under any
    fault configuration (within the generous default budget)."""
    network = random_tree(n, rng=topo_seed)
    faults = FaultConfig.faultless() if p == 0.0 else FaultConfig(model, p)
    outcome = decay_broadcast(network, faults=faults, rng=run_seed)
    assert outcome.success


@given(
    n=st.integers(min_value=2, max_value=25),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=20, deadline=None)
def test_simulation_is_deterministic(n, seed):
    """Identical seeds produce identical trajectories."""
    def run():
        network = gnp(n, 0.3, rng=seed)
        rng = RandomSource(seed)
        protocols = [
            DecayProtocol(n, rng.spawn(), informed=(v == network.source))
            for v in network.nodes()
        ]
        sim = Simulator(
            network, NodeLayer(protocols), FaultConfig.receiver(0.4), rng=seed + 1
        )
        sim.run(max_rounds=2000)
        return sim.round_index, sim.done_count(), sim.counters.as_dict()

    assert run() == run()


@given(
    n=st.integers(min_value=3, max_value=25),
    seed=st.integers(min_value=0, max_value=500),
)
@settings(max_examples=20, deadline=None)
def test_informed_set_monotone(n, seed):
    """Once informed, a node stays informed — the done count never drops."""
    network = random_tree(n, rng=seed)
    rng = RandomSource(seed)
    protocols = [
        DecayProtocol(n, rng.spawn(), informed=(v == network.source))
        for v in network.nodes()
    ]
    sim = Simulator(
        network, NodeLayer(protocols), FaultConfig.receiver(0.3), rng=seed
    )
    last = sim.done_count()
    for _ in range(200):
        if sim.all_done():
            break
        sim.step()
        current = sim.done_count()
        assert current >= last
        last = current


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=15, deadline=None)
def test_counters_consistent(seed):
    """deliveries + collisions + faults never exceed what broadcasts could
    have caused; rounds always advance by exactly the steps taken."""
    network = gnp(12, 0.4, rng=seed)
    rng = RandomSource(seed)
    protocols = [
        DecayProtocol(12, rng.spawn(), informed=(v == network.source))
        for v in network.nodes()
    ]
    sim = Simulator(
        network, NodeLayer(protocols), FaultConfig.receiver(0.3), rng=seed
    )
    steps = 50
    for _ in range(steps):
        sim.step()
    c = sim.counters
    assert c.rounds == steps
    assert c.deliveries + c.receiver_faults <= c.broadcasts * network.max_degree
