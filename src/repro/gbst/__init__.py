"""Ranked BFS trees and gathering-broadcasting spanning trees (GBSTs).

Implements Section 3.4.2's structural machinery:

* :class:`~repro.gbst.ranked_bfs.RankedBFSTree` — a BFS tree with
  Gaber-Mansour ranks (leaves rank 1; a node is rank r if exactly one child
  attains the max child rank r, else r+1), satisfying the Lemma 7 bound
  ``r_max <= ceil(log2 n)``.
* :func:`~repro.gbst.validity.is_gbst` — the gathering-broadcasting
  validity predicate (the property Figure 1 illustrates).
* :func:`~repro.gbst.gbst.build_gbst` — constructs a GBST by BFS parent
  selection plus a verified repair loop.
* :mod:`~repro.gbst.stretches` — decomposition of tree paths into fast
  stretches, the structure the FASTBC analyses (Lemmas 8, 10 and
  Theorem 11) walk along; no algorithm calls it, and the tests check the
  decomposition itself.
"""

from repro.gbst.gbst import build_gbst
from repro.gbst.ranked_bfs import RankedBFSTree, build_ranked_bfs_tree
from repro.gbst.stretches import fast_stretches, path_stretch_decomposition
from repro.gbst.validity import gbst_violations, is_gbst

__all__ = [
    "RankedBFSTree",
    "build_gbst",
    "build_ranked_bfs_tree",
    "fast_stretches",
    "gbst_violations",
    "is_gbst",
    "path_stretch_decomposition",
]
