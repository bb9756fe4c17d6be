"""Tests for bipartite/pipelined routing (Lemmas 20-21) and the WCT
cluster simulator (Lemmas 19, 22, 23)."""

import numpy as np
import pytest

from repro.algorithms.multi.pipelined import (
    bipartite_routing_broadcast,
    pipelined_routing_broadcast,
)
from repro.algorithms.multi.wct_sim import WCTBroadcastSimulator
from repro.core.engine import Channel
from repro.core.faults import FaultConfig
from repro.topologies.basic import path
from repro.topologies.layered import bipartite_network, layered_network
from repro.topologies.wct import worst_case_topology


class TestBipartiteRouting:
    def test_faultless_completes(self):
        net = bipartite_network(4, 8)
        outcome = bipartite_routing_broadcast(
            net, k=4, faults=FaultConfig.faultless(), rng=1
        )
        assert outcome.success

    def test_receiver_faults_completes(self):
        net = bipartite_network(4, 8)
        outcome = bipartite_routing_broadcast(
            net, k=4, faults=FaultConfig.receiver(0.4), rng=2
        )
        assert outcome.success

    def test_sparse_bipartite(self):
        net = bipartite_network(6, 12, edge_probability=0.5, rng=3)
        outcome = bipartite_routing_broadcast(
            net, k=3, faults=FaultConfig.receiver(0.3), rng=4
        )
        assert outcome.success

    def test_needs_two_layers(self):
        with pytest.raises(ValueError):
            bipartite_routing_broadcast(
                path(2), k=1, faults=FaultConfig.faultless()
            )

    def test_rounds_scale_with_k(self):
        net = bipartite_network(4, 8)
        small = bipartite_routing_broadcast(
            net, k=2, faults=FaultConfig.receiver(0.3), rng=5
        )
        large = bipartite_routing_broadcast(
            net, k=16, faults=FaultConfig.receiver(0.3), rng=5
        )
        assert large.rounds > 3 * small.rounds


class TestPipelinedRouting:
    def test_faultless_layered(self):
        net = layered_network(4, 4)
        outcome = pipelined_routing_broadcast(
            net, k=4, faults=FaultConfig.faultless(), rng=1
        )
        assert outcome.success

    def test_receiver_faults_layered(self):
        net = layered_network(3, 4)
        outcome = pipelined_routing_broadcast(
            net, k=6, faults=FaultConfig.receiver(0.3), rng=2
        )
        assert outcome.success

    def test_path_topology(self):
        outcome = pipelined_routing_broadcast(
            path(8), k=4, faults=FaultConfig.receiver(0.3), rng=3
        )
        assert outcome.success

    def test_pipelining_beats_naive_depth_times_k(self):
        """With batches pipelined 3 apart, total rounds ~ (D + k), not D*k
        (in units of the per-batch cost)."""
        net = layered_network(6, 3)
        outcome = pipelined_routing_broadcast(
            net, k=12, faults=FaultConfig.receiver(0.2), rng=4, batch_size=2
        )
        assert outcome.success

    def test_completed_nodes_reported(self):
        net = layered_network(2, 3)
        outcome = pipelined_routing_broadcast(
            net, k=2, faults=FaultConfig.faultless(), rng=5
        )
        assert outcome.completed_nodes == outcome.total_nodes == net.n


class TestWCTSimulatorEquivalence:
    """The collapsed model must match the full Channel semantics."""

    def test_hearing_matches_channel(self):
        wct = worst_case_topology(100, rng=1)
        sim = WCTBroadcastSimulator(wct, p=0.0, rng=2)
        net = wct.network
        channel = Channel(net, FaultConfig.faultless(), rng=3)
        for trial in range(10):
            # random sender subset
            mask = np.zeros(wct.num_senders, dtype=bool)
            rng = np.random.default_rng(trial)
            chosen = rng.choice(
                wct.num_senders, size=max(1, trial % wct.num_senders), replace=False
            )
            mask[chosen] = True
            hearing = sim.hearing_clusters(mask)
            fired = sorted(
                wct.senders[i] for i in range(wct.num_senders) if mask[i]
            )
            result = channel.transmit(np.array(fired, dtype=np.int64))
            received_nodes = set(result.receivers.tolist())
            for j, members in enumerate(wct.clusters):
                if hearing[j]:
                    assert set(members) <= received_nodes
                else:
                    assert not (set(members) & received_nodes)


class TestWCTSchedules:
    def test_routing_completes(self):
        wct = worst_case_topology(144, rng=1)
        sim = WCTBroadcastSimulator(wct, p=0.5, rng=2)
        outcome = sim.run_routing(k=4)
        assert outcome.success

    def test_coding_completes(self):
        wct = worst_case_topology(144, rng=1)
        sim = WCTBroadcastSimulator(wct, p=0.5, rng=2)
        outcome = sim.run_coding(k=4)
        assert outcome.success

    def test_coding_beats_routing(self):
        """Theorem 24's mechanism: routing pays an extra log factor."""
        wct = worst_case_topology(900, rng=3)
        sim_r = WCTBroadcastSimulator(wct, p=0.5, rng=4)
        sim_c = WCTBroadcastSimulator(wct, p=0.5, rng=4)
        routing = sim_r.run_routing(k=8)
        coding = sim_c.run_coding(k=8)
        assert routing.success and coding.success
        assert coding.rounds < routing.rounds

    def test_budget_failure(self):
        wct = worst_case_topology(144, rng=1)
        sim = WCTBroadcastSimulator(wct, p=0.5, rng=2)
        outcome = sim.run_routing(k=8, max_rounds=10)
        assert not outcome.success

    def test_rejects_bad_k(self):
        wct = worst_case_topology(144, rng=1)
        sim = WCTBroadcastSimulator(wct, p=0.5, rng=2)
        with pytest.raises(ValueError):
            sim.run_routing(k=0)

    def test_rejects_bad_p(self):
        wct = worst_case_topology(144, rng=1)
        with pytest.raises(ValueError):
            WCTBroadcastSimulator(wct, p=1.0)
