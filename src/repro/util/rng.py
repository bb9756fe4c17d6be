"""Deterministic random-number management.

Every stochastic component in the library draws randomness through a
:class:`RandomSource`. A source is constructed from an integer seed and can
``spawn`` independent child sources, so that (a) whole experiments are
reproducible from a single seed, and (b) adding randomness consumption to one
component does not perturb the stream seen by another.

A source wraps :class:`random.Random` (CPython's MT19937) rather than a
numpy generator, so one node's coin is one ``random()`` call with no numpy
overhead; bulk draws delegate to a numpy generator derived from the stream.
On large networks the per-node calls are the cost:
:meth:`RandomSource.spawn_bank` spawns the children that
:meth:`~RandomSource.spawn_many` would as one :class:`StreamBank`, which
keeps every child's MT19937 state in one array and draws one ``random()``
for each of many children in a few numpy calls, bit for bit the values
their own ``random.Random`` objects would give.
"""

from __future__ import annotations

import mmap
import random
from typing import Callable, Iterator, Sequence

import numpy as np

__all__ = ["RandomSource", "StreamBank", "spawn_rng"]

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

    def spawn_bank(self, count: int) -> "StreamBank":
        """The next ``count`` children as one :class:`StreamBank`.

        Row ``i`` of the bank is the stream of the ``i``-th child that
        :meth:`spawn_many` would return, and the parent advances as far,
        so later spawns are unchanged.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        base = (self.seed * _SPAWN_MULTIPLIER + self._spawn_count) % (2**63)
        self._spawn_count += count
        seeds = np.uint64(base) + np.arange(1, count + 1, dtype=np.uint64)
        return StreamBank(seeds & np.uint64(2**63 - 1))

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


# MT19937 as CPython's _randommodule.c runs it: N state words, the twist's
# offset M, its matrix, and the word masks of the twist's pair
_N = 624
_M = 397
_MATRIX_A = 0x9908B0DF
_UPPER = 0x80000000
_LOWER = 0x7FFFFFFF
#: columns twisted together, which bounds the twist's temporaries
_TWIST_CHUNK = 128
# genrand_res53 keeps the top 27 bits of its first word, 26 of its second
_RES53_SHIFTS = np.array([[5], [6]], dtype=np.uint32)


def _init_genrand(seed: int) -> np.ndarray:
    """``init_genrand(seed)``: the state every ``init_by_array`` starts from."""
    mt = [seed & 0xFFFFFFFF]
    for i in range(1, _N):
        prev = mt[-1]
        mt.append((1812433253 * (prev ^ (prev >> 30)) + i) & 0xFFFFFFFF)
    return np.array(mt, dtype=np.uint32)


_INIT_19650218 = _init_genrand(19650218)


def _twist(mt: np.ndarray) -> None:
    """Twist the ``(N, k)`` states ``mt`` in place, one column per stream.

    Word ``i < N - 1`` becomes ``mt[i + M] ^ f(mt[i], mt[i + 1])``, where
    ``f`` reads only words not yet twisted, so every ``f`` is one block;
    ``mt[i + M]`` wraps to a word twisted earlier in the same pass for
    ``i >= N - M``, so the XORs run in blocks of at most ``N - M`` words.
    """
    f = _twist_pair(mt[: _N - 1], mt[1:])
    for start in range(0, _N - 1, _N - _M):
        stop = min(start + _N - _M, _N - 1)
        source = start + _M if start == 0 else start + _M - _N
        np.bitwise_xor(
            mt[source : source + stop - start], f[start:stop], out=mt[start:stop]
        )
    last = _twist_pair(mt[_N - 1 :], mt[:1])
    np.bitwise_xor(mt[_M - 1 : _M], last, out=mt[_N - 1 :])


def _twist_pair(high: np.ndarray, low: np.ndarray) -> np.ndarray:
    """``(y >> 1) ^ mag01[y & 1]`` for ``y`` the high bit of ``high``
    joined to the low 31 bits of ``low``."""
    y = high & np.uint32(_UPPER)
    mag = low & np.uint32(_LOWER)
    y |= mag
    y >>= 1
    np.bitwise_and(low, 1, out=mag)
    mag *= np.uint32(_MATRIX_A)
    y ^= mag
    return y


def _mapped_words(count: int) -> np.ndarray:
    """``count`` uint32 words in a private anonymous mapping of their own.

    A bank's state is megabytes. Had glibc's malloc mapped it, freeing it
    would raise malloc's mmap threshold to its size and its trim
    threshold to twice that, and the heap could then keep up to that
    much freed memory resident for the rest of the process; unmapping
    our own mapping returns the pages at once.
    """
    # ACCESS_COPY: private to this process (forked workers copy on
    # write), and a keyword every platform's mmap takes
    mapping = mmap.mmap(-1, max(4 * count, 1), access=mmap.ACCESS_COPY)
    return np.frombuffer(mapping, dtype=np.uint32, count=count)


def _mix(prev: np.ndarray, row: np.ndarray, out: np.ndarray, multiplier: int) -> None:
    """``row ^= (prev ^ (prev >> 30)) * multiplier``, in place."""
    np.right_shift(prev, 30, out=out)
    np.bitwise_xor(out, prev, out=out)
    np.multiply(out, multiplier, out=out)
    np.bitwise_xor(row, out, out=row)


class StreamBank:
    """Many :class:`random.Random` streams in one array, drawn together.

    Row ``v`` is the stream of ``random.Random(seeds[v])``: its MT19937
    state is column ``v`` of one ``(624, n)`` uint32 array, word-major so
    that each step of the seeding is one contiguous row of ``n`` words,
    and :attr:`cursor` holds where it reads next. :meth:`random` draws the
    next ``random()`` of many rows at once and returns exactly what each
    row's own ``random.Random`` would return in turn. The state lives in
    a mapping of its own (:func:`_mapped_words`).

    Seeding runs CPython's ``init_by_array`` over the seeds' 32-bit words
    for every row at once, then twists every row in chunks of
    :data:`_TWIST_CHUNK` columns: ``random.Random`` twists at its first
    draw, and twisting here spares each cohort of rows that start
    drawing together a twist of its own. A row that has never drawn so
    holds the twisted state at position 0, where ``random.Random`` holds
    the untwisted one at 624; :meth:`getstate` accounts for that.

    Parameters
    ----------
    seeds:
        One seed per row, each in ``[0, 2**63)``.
    """

    __slots__ = ("seeds", "state", "cursor", "_words", "_offsets")

    def __init__(self, seeds: np.ndarray) -> None:
        seeds = np.asarray(seeds, dtype=np.uint64)
        if seeds.ndim != 1 or (seeds >> np.uint64(63)).any():
            raise ValueError("seeds must be a 1-D array of integers in [0, 2**63)")
        n = len(seeds)
        self.seeds = seeds
        #: word ``i`` of row ``v`` is ``state[i, v]``
        self.state = mt = _mapped_words(_N * n).reshape(_N, n)
        self._words = mt.reshape(-1)
        #: where each row reads next in the flattened state: row ``v`` at
        #: position ``i`` is ``i * n + v``, and ``i`` is even, as a draw
        #: takes two words
        self.cursor = np.arange(n, dtype=np.int64)
        # word i of row v is _words[_offsets[i] + v]
        self._offsets = np.arange(_N, dtype=np.int64)[:, None] * n
        mt[:] = _INIT_19650218[:, None]
        # init_by_array's key is a seed's 32-bit words, low word first and
        # at least one; step t adds key[t % len(key)] + t % len(key)
        low = (seeds & np.uint64(0xFFFFFFFF)).astype(np.uint32)
        high = (seeds >> np.uint64(32)).astype(np.uint32)
        odd = np.where(high == 0, low, high + np.uint32(1))
        rows = list(mt)
        mix = np.empty(n, dtype=np.uint32)
        i = 1
        for step in range(_N):
            _mix(rows[i - 1], rows[i], mix, 1664525)
            np.add(rows[i], odd if step & 1 else low, out=rows[i])
            i += 1
            if i == _N:
                rows[0][:] = rows[_N - 1]
                i = 1
        for _ in range(_N - 1):
            _mix(rows[i - 1], rows[i], mix, 1566083941)
            np.subtract(rows[i], i, out=rows[i])
            i += 1
            if i == _N:
                rows[0][:] = rows[_N - 1]
                i = 1
        rows[0][:] = _UPPER
        for start in range(0, n, _TWIST_CHUNK):
            _twist(mt[:, start : start + _TWIST_CHUNK])

    def __len__(self) -> int:
        return len(self.seeds)

    def random(self, rows: np.ndarray) -> np.ndarray:
        """The next ``random()`` of each of ``rows`` (distinct), as float64.

        Row ``rows[j]`` advances by one draw and gives entry ``j``.
        """
        n = len(self.seeds)
        end = _N * n
        first = self.cursor[rows]
        if first.max(initial=0) >= end:
            # rows that have read all 624 words twist before they draw
            spent = first >= end
            self._twist_rows(rows[spent])
            first[spent] -= end
        self.cursor[rows] = first + 2 * n
        # a draw reads a row's next two words, one state row apart
        words = self._words[self._offsets[:2] + first]
        words ^= words >> 11
        words ^= (words << 7) & np.uint32(0x9D2C5680)
        words ^= (words << 15) & np.uint32(0xEFC60000)
        words ^= words >> 18
        words >>= _RES53_SHIFTS
        return (words[0] * 67108864.0 + words[1]) * (1.0 / 9007199254740992.0)

    def _twist_rows(self, rows: np.ndarray) -> None:
        """Twist the states of ``rows``, :data:`_TWIST_CHUNK` at a time."""
        for start in range(0, len(rows), _TWIST_CHUNK):
            index = self._offsets + rows[start : start + _TWIST_CHUNK]
            block = self._words[index]
            _twist(block)
            self._words[index] = block

    def getstate(self, row: int) -> tuple:
        """``random.Random.getstate()`` of row ``row``'s stream as it stands."""
        position = int(self.cursor[row]) // len(self.seeds)
        if position == 0:
            # never drawn: the twisted words stand for the seeded ones
            return random.Random(int(self.seeds[row])).getstate()
        words = tuple(self.state[:, row].tolist())
        return (random.Random.VERSION, words + (position,), None)


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
