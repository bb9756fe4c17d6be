"""A small registry of named topology families for experiments and the CLI.

Experiments sweep over families by name; the registry centralizes the
mapping so the CLI, benchmarks, and tests agree on what e.g. ``"path"``
means.

A network is a function of its family's builder, ``n`` and ``seed``, and
sweeps run many scenarios on one topology in a row, so
:func:`make_topology` keeps the last network it built and returns that
same object to the next request for it. Networks are shared and
read-only.
"""

from __future__ import annotations

import functools
from typing import Callable

from repro.core.network import RadioNetwork
from repro.topologies import basic, layered, random_graphs

__all__ = ["TOPOLOGY_FAMILIES", "make_topology"]


def _path(n: int, seed: int) -> RadioNetwork:
    return basic.path(n)


def _single_link(n: int, seed: int) -> RadioNetwork:
    # always the 2-node link; a requested n does not apply (run reports
    # record the materialized size)
    return basic.single_link()


def _star(n: int, seed: int) -> RadioNetwork:
    return basic.star(max(1, n - 1))


def _cycle(n: int, seed: int) -> RadioNetwork:
    return basic.cycle(max(3, n))


def _complete(n: int, seed: int) -> RadioNetwork:
    return basic.complete(n)


def _grid(n: int, seed: int) -> RadioNetwork:
    side = max(1, round(n**0.5))
    return basic.grid(side, side)


def _tree(n: int, seed: int) -> RadioNetwork:
    return random_graphs.random_tree(n, rng=seed)


def _gnp(n: int, seed: int) -> RadioNetwork:
    # ~4 log n / n keeps G(n,p) connected w.h.p. while staying sparse
    import math

    p = min(1.0, 4.0 * math.log(max(2, n)) / max(2, n))
    return random_graphs.gnp(n, p, rng=seed)


def _layered(n: int, seed: int) -> RadioNetwork:
    # consecutive layers are joined completely: no coin is drawn
    width = max(2, round(n**0.5))
    layers = max(1, (n - 1) // width)
    return layered.layered_network(layers, width)


def _caterpillar(n: int, seed: int) -> RadioNetwork:
    spine = max(1, n // 2)
    return basic.caterpillar(spine, 1)


def _bramble(n: int, seed: int) -> RadioNetwork:
    # spine + (spine-2)*bags ~ n with 3-node bags
    spine = max(3, (n + 6) // 4)
    return basic.bramble(spine, 3)


#: name -> builder(n, seed) for the families experiments sweep over
TOPOLOGY_FAMILIES: dict[str, Callable[[int, int], RadioNetwork]] = {
    "path": _path,
    "single_link": _single_link,
    "star": _star,
    "cycle": _cycle,
    "complete": _complete,
    "grid": _grid,
    "tree": _tree,
    "gnp": _gnp,
    "layered": _layered,
    "caterpillar": _caterpillar,
    "bramble": _bramble,
}


#: builders whose graph ignores the seed: one network serves every seed
_SEED_FREE = frozenset(
    {_path, _single_link, _star, _cycle, _complete, _grid, _layered,
     _caterpillar, _bramble}
)


def make_topology(family: str, n: int, seed: int = 0) -> RadioNetwork:
    """Build a named topology family at size ~n (deterministic per seed).

    A repeat request for the last network built returns the same, shared
    object; families whose graph ignores the seed (path, grid, ...) share
    it across seeds.
    """
    try:
        builder = TOPOLOGY_FAMILIES[family]
    except KeyError:
        known = ", ".join(sorted(TOPOLOGY_FAMILIES))
        raise ValueError(f"unknown family {family!r}; known: {known}") from None
    return _build(builder, n, 0 if builder in _SEED_FREE else seed)


@functools.lru_cache(maxsize=1, typed=True)
def _build(
    builder: Callable[[int, int], RadioNetwork], n: int, seed: int
) -> RadioNetwork:
    return builder(n, seed)
