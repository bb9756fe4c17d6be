"""One network and one GBST per topology, shared across runs.

``make_topology`` and ``build_gbst`` each keep their last result and hand
that same object to the next request for it. These tests pin what makes
the sharing safe: the seed-free declaration matches what the builders
do, the memos key on everything a build depends on, the shared objects
reject writes, and a run's canonical report is the same whether the
memos are warm or cold.
"""

import dataclasses

import pytest

from repro.core.faults import FaultConfig
from repro.gbst.gbst import build_gbst
from repro.runner import Scenario, run
from repro.topologies import registry
from repro.topologies.basic import grid
from repro.topologies.registry import TOPOLOGY_FAMILIES, make_topology

SEED_FREE = sorted(
    name
    for name, builder in TOPOLOGY_FAMILIES.items()
    if builder in registry._SEED_FREE
)
SEEDED = sorted(set(TOPOLOGY_FAMILIES) - set(SEED_FREE))


def _clear_memos():
    registry._build.cache_clear()
    build_gbst.cache_clear()


class TestTopologyMemo:
    def test_declared_seed_free_families(self):
        assert SEED_FREE == [
            "bramble", "caterpillar", "complete", "cycle", "grid", "layered",
            "path", "single_link", "star",
        ]

    @pytest.mark.parametrize("family", SEED_FREE)
    @pytest.mark.parametrize("n", [2, 17, 64])
    def test_seed_free_builders_ignore_the_seed(self, family, n):
        # the builders themselves, past the memo
        builder = TOPOLOGY_FAMILIES[family]
        a, b = builder(n, 0), builder(n, 1)
        assert list(a.graph.edges()) == list(b.graph.edges())
        assert (a.neighbors, a.source) == (b.neighbors, b.source)

    @pytest.mark.parametrize("family", SEEDED)
    def test_seeded_families_key_on_the_seed(self, family):
        assert make_topology(family, 64, seed=0) is not make_topology(
            family, 64, seed=1
        )

    @pytest.mark.parametrize("family", sorted(TOPOLOGY_FAMILIES))
    def test_a_repeat_request_returns_the_same_network(self, family):
        first = make_topology(family, 20, seed=3)
        assert make_topology(family, 20, seed=3) is first
        same_for_any_seed = family in SEED_FREE
        assert (make_topology(family, 20, seed=4) is first) == same_for_any_seed
        assert make_topology(family, 21, seed=3) is not first

    def test_an_unknown_family_raises_before_the_memo(self):
        make_topology("path", 8)
        info = registry._build.cache_info()
        with pytest.raises(ValueError, match="unknown family"):
            make_topology("klein-bottle", 8)
        assert registry._build.cache_info() == info


class TestGBSTMemo:
    def test_same_network_and_budget_share_one_result(self):
        network = grid(8, 8)
        first = build_gbst(network)
        assert build_gbst(network) is first
        assert first.repair_iterations == 2

    def test_another_budget_or_network_builds_anew(self):
        network = grid(8, 8)
        repaired = build_gbst(network)
        cut_short = build_gbst(network, 1)
        assert (cut_short.valid, repaired.valid) == (False, True)
        assert build_gbst(network) is not repaired  # budget 1 evicted it
        other = build_gbst(grid(8, 8))
        assert other is not repaired
        assert other.tree.parent == repaired.tree.parent


def test_shared_objects_reject_writes():
    network = make_topology("grid", 16)
    result = build_gbst(network)
    with pytest.raises(ValueError, match="read-only"):
        network.indptr[0] = 1
    with pytest.raises(ValueError, match="read-only"):
        network.indices[0] = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        result.valid = False


@pytest.mark.parametrize(
    "algorithm, other", [("fastbc", "robust_fastbc"), ("robust_fastbc", "fastbc")]
)
def test_reports_identical_with_warm_and_cleared_memos(algorithm, other):
    scenario = Scenario(
        algorithm,
        topology="grid",
        topology_params={"n": 1024},
        faults=FaultConfig.receiver(0.3),
        seed=5,
    )
    _clear_memos()
    cold = run(scenario).to_json(canonical=True)
    run(scenario.with_(algorithm=other, seed=6))
    topology_hits = registry._build.cache_info().hits
    gbst_hits = build_gbst.cache_info().hits
    warm = run(scenario).to_json(canonical=True)
    assert registry._build.cache_info().hits == topology_hits + 1
    assert build_gbst.cache_info().hits == gbst_hits + 1
    _clear_memos()
    cleared = run(scenario).to_json(canonical=True)
    assert warm == cold
    assert cleared == cold
