"""The incremental GBST repair against a full rebuild per iteration.

:func:`full_rebuild_gbst` is the repair loop written from the public
:class:`RankedBFSTree` and :func:`gbst_violations`: every iteration
re-parents each violating child onto its first rival, then rebuilds the
whole tree, re-ranks every node and rescans every fast node.
:func:`build_gbst` must return the same tree and the same diagnostics.
"""

from hypothesis import given, settings, target
from hypothesis import strategies as st

from repro.gbst.figure1 import figure1_network
from repro.gbst.gbst import GBSTResult, build_gbst
from repro.gbst.ranked_bfs import RankedBFSTree, build_ranked_bfs_tree
from repro.gbst.validity import gbst_violations
from repro.topologies import basic, layered, random_graphs
from repro.topologies.registry import make_topology


def full_rebuild_gbst(network, max_repair_iterations=200) -> GBSTResult:
    """The reference repair loop."""
    tree = build_ranked_bfs_tree(network)
    violations = gbst_violations(tree)
    seen_parent_vectors = {tuple(tree.parent)}
    iterations = 0
    while violations and iterations < max_repair_iterations:
        iterations += 1
        parent = list(tree.parent)
        moved = set()
        for violation in violations:  # each child's rivals in neighbor order
            if violation.child not in moved:
                parent[violation.child] = violation.rival
                moved.add(violation.child)
        if tuple(parent) in seen_parent_vectors:
            break
        seen_parent_vectors.add(tuple(parent))
        tree = RankedBFSTree(network, parent)
        violations = gbst_violations(tree)
    return GBSTResult(tree, not violations, iterations, len(violations))


def _fields(result: GBSTResult) -> dict:
    tree = result.tree
    return {
        "parent": tree.parent,
        "rank": tree.rank,
        "level": tree.level,
        "children": tree.children,
        "valid": result.valid,
        "repair_iterations": result.repair_iterations,
        "remaining_violations": result.remaining_violations,
    }


def assert_same_as_reference(network, max_repair_iterations=200) -> GBSTResult:
    reference = full_rebuild_gbst(network, max_repair_iterations)
    assert _fields(build_gbst(network, max_repair_iterations)) == _fields(
        reference
    ), network.name
    return reference


_N = st.integers(min_value=2, max_value=400)
_SEED = st.integers(min_value=0, max_value=2**16)
_SIDE = st.integers(min_value=1, max_value=20)

NETWORKS = st.one_of(
    st.builds(basic.path, _N),
    st.builds(lambda side: basic.grid(side, side), st.integers(2, 20)),
    st.builds(basic.grid, _SIDE, _SIDE).filter(lambda net: net.n >= 2),
    st.builds(
        random_graphs.gnp,
        st.integers(min_value=2, max_value=200),
        st.floats(min_value=0.1, max_value=0.5),
        _SEED,
    ),
    st.builds(
        basic.caterpillar,
        st.integers(min_value=2, max_value=100),
        st.integers(min_value=0, max_value=3),
    ),
    st.builds(
        basic.bramble,
        st.integers(min_value=2, max_value=100),
        st.integers(min_value=0, max_value=3),
    ),
    st.builds(
        layered.layered_network,
        _SIDE,
        _SIDE,
        st.floats(min_value=0.1, max_value=1.0),
        _SEED,
    ),
    st.builds(random_graphs.random_tree, _N, _SEED),
    st.builds(basic.cycle, st.integers(min_value=3, max_value=400)),
    st.builds(basic.star, st.integers(min_value=1, max_value=399)),
    st.builds(figure1_network),
)


@given(
    network=NETWORKS,
    max_repair_iterations=st.sampled_from([0, 1, 2, 3, 200]),
)
@settings(max_examples=300, deadline=None)
def test_incremental_repair_matches_full_rebuild(network, max_repair_iterations):
    reference = assert_same_as_reference(network, max_repair_iterations)
    # steer generation toward networks that need many repair iterations
    target(float(reference.repair_iterations))


def test_wave_grid_network_matches_full_rebuild():
    # 30 repair iterations, thousands of re-parents in the first ones
    assert_same_as_reference(make_topology("grid", 4096))


def test_remaining_violations_count_rival_pairs():
    # one iteration leaves two violating children with three rivals
    reference = assert_same_as_reference(
        random_graphs.gnp(70, 0.15, rng=26), max_repair_iterations=1
    )
    assert reference.remaining_violations == 3


def test_cycle_stop_matches_full_rebuild():
    # the third iteration would repeat an earlier parent vector: the loop
    # stops, counts it and keeps the previous tree's two violations
    reference = assert_same_as_reference(make_topology("gnp", 38, 964751))
    assert reference.repair_iterations == 3
    assert not reference.valid
    assert reference.remaining_violations == 2
