"""Deterministic random-number management.

Every stochastic component in the library draws randomness through a
:class:`RandomSource`. A source is constructed from an integer seed and can
``spawn`` independent child sources, so that (a) whole experiments are
reproducible from a single seed, and (b) adding randomness consumption to one
component does not perturb the stream seen by another.

The implementation wraps :class:`random.Random` rather than numpy's
generators because the hot paths of the simulator draw single Bernoulli and
integer variates, where the pure-Python generator avoids per-call numpy
overhead. Bulk draws delegate to numpy when profitable.
"""

from __future__ import annotations

import random
from typing import Callable, Iterator, Sequence

import numpy as np

__all__ = ["RandomSource", "spawn_rng"]

# Multiplier used to derive child seeds; a large odd constant keeps child
# streams decorrelated for the seed ranges used in experiments.
_SPAWN_MULTIPLIER = 0x9E3779B97F4A7C15


class RandomSource:
    """A seedable source of randomness with independent child streams.

    Parameters
    ----------
    seed:
        Non-negative integer seed. Two sources built from the same seed
        produce identical streams.
    """

    __slots__ = ("seed", "_rng", "_spawn_count", "_np_rng")

    def __init__(self, seed: int = 0) -> None:
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        if seed < 0:
            # random.Random seeds from abs(seed): -s would alias s
            raise ValueError(f"seed must be non-negative, got {seed}")
        self.seed = seed
        self._rng = random.Random(seed)
        self._spawn_count = 0
        self._np_rng: "np.random.Generator | None" = None

    def spawn(self) -> "RandomSource":
        """Return a child source whose stream is independent of this one.

        Children are derived from (seed, spawn index) so the k-th child of a
        given source is always the same, regardless of how much randomness
        the parent consumed in between.
        """
        self._spawn_count += 1
        child_seed = (self.seed * _SPAWN_MULTIPLIER + self._spawn_count) % (2**63)
        return RandomSource(child_seed)

    def spawn_many(self, count: int) -> list["RandomSource"]:
        """Return ``count`` independent child sources."""
        return [self.spawn() for _ in range(count)]

    # -- scalar draws -----------------------------------------------------

    def bernoulli(self, p: float) -> bool:
        """Return True with probability ``p``."""
        if p <= 0.0:
            return False
        if p >= 1.0:
            return True
        return self._rng.random() < p

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return self._rng.random()

    @property
    def bound_random(self) -> Callable[[], float]:
        """The stream's own ``random`` method, bound.

        Each call draws exactly what :meth:`random` draws, so
        ``bound_random() < p`` is ``bernoulli(p)`` for ``0 < p < 1``. Hot
        loops bind it once per source and skip the wrapper's call.
        """
        return self._rng.random

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in the inclusive range [low, high]."""
        return self._rng.randint(low, high)

    def choice(self, seq: Sequence):
        """Uniformly random element of a non-empty sequence."""
        return self._rng.choice(seq)

    def sample(self, seq: Sequence, k: int) -> list:
        """k distinct elements sampled uniformly without replacement."""
        return self._rng.sample(seq, k)

    def shuffle(self, items: list) -> None:
        """Shuffle ``items`` in place."""
        self._rng.shuffle(items)

    def geometric(self, p: float) -> int:
        """Number of Bernoulli(p) trials up to and including first success."""
        if not 0.0 < p <= 1.0:
            raise ValueError(f"geometric requires p in (0, 1], got {p}")
        trials = 1
        while not self.bernoulli(p):
            trials += 1
        return trials

    # -- bulk draws -------------------------------------------------------

    def _numpy_generator(self) -> np.random.Generator:
        """The derived numpy generator backing all bulk draws.

        Created lazily from this source's stream on first use and cached:
        repeated bulk draws advance one persistent generator instead of
        paying ``default_rng`` construction per call (bulk-stream v2; see
        PERFORMANCE.md).
        """
        if self._np_rng is None:
            self._np_rng = np.random.default_rng(self._rng.getrandbits(63))
        return self._np_rng

    def bernoulli_array(self, p: float, size: int) -> np.ndarray:
        """Boolean array of ``size`` independent Bernoulli(p) draws."""
        if size < 0:
            raise ValueError("size must be non-negative")
        if p <= 0.0:
            return np.zeros(size, dtype=bool)
        if p >= 1.0:
            return np.ones(size, dtype=bool)
        return self._numpy_generator().random(size) < p

    def uniform_array(self, size: int) -> np.ndarray:
        """Array of ``size`` uniform floats in [0, 1).

        The bulk primitive behind heterogeneous Bernoulli draws (e.g.
        per-node loss rates in the Gilbert-Elliott adversary): drawing
        uniforms unconditionally keeps stream consumption independent of
        the per-element probabilities.
        """
        if size < 0:
            raise ValueError("size must be non-negative")
        return self._numpy_generator().random(size)

    def permutation_array(self, size: int) -> np.ndarray:
        """Uniformly random permutation of ``range(size)`` (int64)."""
        if size < 0:
            raise ValueError("size must be non-negative")
        return self._numpy_generator().permutation(size).astype(np.int64)

    def bytes_array(self, size: int) -> np.ndarray:
        """Array of ``size`` uniform bytes (dtype uint8)."""
        if size < 0:
            raise ValueError("size must be non-negative")
        return self._numpy_generator().integers(0, 256, size=size, dtype=np.uint8)

    def iter_bernoulli(self, p: float) -> Iterator[bool]:
        """Infinite iterator of Bernoulli(p) draws."""
        while True:
            yield self.bernoulli(p)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomSource(seed={self.seed})"


def spawn_rng(seed_or_source: "int | RandomSource | None") -> RandomSource:
    """Coerce a seed, an existing source, or None into a RandomSource.

    ``None`` maps to seed 0 — the library is deterministic by default; callers
    wanting run-to-run variation must pass explicit seeds.
    """
    if seed_or_source is None:
        return RandomSource(0)
    if isinstance(seed_or_source, RandomSource):
        return seed_or_source
    if isinstance(seed_or_source, int):
        return RandomSource(seed_or_source)
    raise TypeError(
        "expected int seed, RandomSource, or None; "
        f"got {type(seed_or_source).__name__}"
    )
