"""GBST construction: ranked BFS + verified repair loop.

Gąsieniec et al. [22] prove every graph admits a gathering-broadcasting
spanning tree. Their construction is intricate; this module implements a
pragmatic constructor with a verified output:

1. build a ranked BFS tree with a parent-choice heuristic that concentrates
   children on high-degree parents (fewer parallel fast stretches);
2. while violations exist (see :mod:`repro.gbst.validity`), re-parent the
   violating fast child onto its rival fast node — this merges the two
   competing waves into one stretch — and recompute ranks;
3. stop when valid or when the iteration budget is exhausted.

The returned tree carries a ``valid`` flag. On every topology family
shipped with the library the loop converges (tests assert this); on a
hypothetical adversarial input where it does not, FASTBC still broadcasts
correctly — the Decay half of the schedule alone suffices — but loses its
diameter-linearity guarantee, matching how the paper's analysis decomposes
into slow and fast rounds.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.network import RadioNetwork
from repro.gbst.ranked_bfs import RankedBFSTree, build_ranked_bfs_tree
from repro.gbst.validity import gbst_violations

__all__ = ["GBSTResult", "build_gbst"]


@dataclass
class GBSTResult:
    """A constructed tree plus construction diagnostics."""

    tree: RankedBFSTree
    valid: bool
    repair_iterations: int
    remaining_violations: int


def build_gbst(
    network: RadioNetwork, max_repair_iterations: int = 200
) -> GBSTResult:
    """Construct a GBST for ``network`` (see module docstring).

    Parameters
    ----------
    network:
        The network to span.
    max_repair_iterations:
        Budget for the repair loop; each iteration fixes every currently
        known violation once and recomputes ranks.
    """
    tree = build_ranked_bfs_tree(network)
    iterations = 0
    violations = gbst_violations(tree)
    seen_parent_vectors = {tuple(tree.parent)}

    while violations and iterations < max_repair_iterations:
        iterations += 1
        parent = list(tree.parent)
        changed = False
        handled_children: set[int] = set()
        for violation in violations:
            if violation.child in handled_children:
                continue
            # Merge the rival wave: make the child ride the rival's stretch.
            parent[violation.child] = violation.rival
            handled_children.add(violation.child)
            changed = True
        if not changed:
            break
        key = tuple(parent)
        if key in seen_parent_vectors:
            # re-parenting cycled; stop rather than loop forever
            break
        seen_parent_vectors.add(key)
        tree = RankedBFSTree(network, parent)
        violations = gbst_violations(tree)

    return GBSTResult(
        tree=tree,
        valid=not violations,
        repair_iterations=iterations,
        remaining_violations=len(violations),
    )
