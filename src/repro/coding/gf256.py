"""Arithmetic in GF(2^8), the field with 256 elements.

Elements are integers in [0, 255] interpreted as polynomials over GF(2)
modulo the AES polynomial x^8 + x^4 + x^3 + x + 1 (0x11B). Multiplication
and inversion go through log/antilog tables built once at import, using the
primitive element 3 (a generator for this modulus).

The class is a namespace of static methods plus vectorized numpy variants;
field *elements* stay plain ints / uint8 arrays so the hot RLNC paths avoid
object overhead.
"""

from __future__ import annotations

import numpy as np

__all__ = ["GF256"]

_MODULUS = 0x11B
_GENERATOR = 0x03
_ORDER = 255  # multiplicative group order


def _build_tables() -> tuple[np.ndarray, np.ndarray]:
    """Build exp/log tables for the multiplicative group of GF(2^8)."""
    exp = np.zeros(2 * _ORDER, dtype=np.uint8)
    log = np.zeros(256, dtype=np.int16)
    value = 1
    for power in range(_ORDER):
        exp[power] = value
        log[value] = power
        # multiply value by the generator (x + 1) in GF(2^8)
        value = value ^ (value << 1)
        if value & 0x100:
            value ^= _MODULUS
    # duplicate so exp[a + b] never needs an explicit mod in scalar paths
    exp[_ORDER:] = exp[:_ORDER]
    return exp, log


_EXP, _LOG = _build_tables()

# 256x256 multiplication table: one-time 64 KiB cost buys branch-free
# vectorized multiplication for matrices and RLNC combination. Each table
# is one gather from exp at log sums; row and column 0 stay zero.
_NONZERO_LOG = _LOG[1:].astype(np.intp)
_MUL_TABLE = np.zeros((256, 256), dtype=np.uint8)
_MUL_TABLE[1:, 1:] = _EXP[_NONZERO_LOG[:, None] + _NONZERO_LOG[None, :]]

_INV_TABLE = np.zeros(256, dtype=np.uint8)
_INV_TABLE[1:] = _EXP[_ORDER - _NONZERO_LOG]

# flat view of the multiplication table: np.take on a 1-D array with a
# precomputed (scalar << 8) + element index is 2-3x faster than 2-D
# advanced indexing on the hot batched paths
_MUL_FLAT = np.ascontiguousarray(_MUL_TABLE).reshape(65536)


class GF256:
    """Static arithmetic over GF(2^8).

    All scalar operations take and return plain ints in [0, 255]; vector
    operations take and return ``uint8`` numpy arrays.
    """

    order = 256
    modulus = _MODULUS
    generator = _GENERATOR

    # -- scalar operations -------------------------------------------------

    @staticmethod
    def add(a: int, b: int) -> int:
        """Field addition (= subtraction): XOR of representations."""
        return a ^ b

    @staticmethod
    def sub(a: int, b: int) -> int:
        """Field subtraction; identical to addition in characteristic 2."""
        return a ^ b

    @staticmethod
    def mul(a: int, b: int) -> int:
        """Field multiplication via log/antilog tables."""
        if a == 0 or b == 0:
            return 0
        return int(_EXP[int(_LOG[a]) + int(_LOG[b])])

    @staticmethod
    def inv(a: int) -> int:
        """Multiplicative inverse; raises ZeroDivisionError for 0."""
        if a == 0:
            raise ZeroDivisionError("0 has no inverse in GF(2^8)")
        return int(_INV_TABLE[a])

    @staticmethod
    def div(a: int, b: int) -> int:
        """Field division a / b."""
        if b == 0:
            raise ZeroDivisionError("division by zero in GF(2^8)")
        if a == 0:
            return 0
        return int(_EXP[(int(_LOG[a]) - int(_LOG[b])) % _ORDER])

    @staticmethod
    def pow(a: int, exponent: int) -> int:
        """Field exponentiation a ** exponent (exponent may be negative)."""
        if a == 0:
            if exponent == 0:
                return 1
            if exponent < 0:
                raise ZeroDivisionError("0 has no negative powers in GF(2^8)")
            return 0
        reduced = (int(_LOG[a]) * exponent) % _ORDER
        return int(_EXP[reduced])

    # -- vector operations ---------------------------------------------------

    @staticmethod
    def mul_vec(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise product of two uint8 arrays."""
        return _MUL_TABLE[a, b]

    @staticmethod
    def scale_vec(scalar: int, vec: np.ndarray) -> np.ndarray:
        """scalar * vec for a uint8 array."""
        return _MUL_TABLE[scalar, vec]

    @staticmethod
    def add_vec(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise sum (XOR) of two uint8 arrays."""
        return np.bitwise_xor(a, b)

    @staticmethod
    def dot_vec(a: np.ndarray, b: np.ndarray) -> int:
        """Inner product of two uint8 vectors."""
        if a.shape != b.shape:
            raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
        products = _MUL_TABLE[a, b]
        return int(np.bitwise_xor.reduce(products)) if products.size else 0

    @staticmethod
    def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Matrix product of uint8 matrices over GF(2^8).

        Loops over the inner dimension: each term is one table lookup of
        a (rows, cols) slab, XOR-accumulated, so memory stays
        O(rows * cols) and the Python work O(inner).
        """
        if a.ndim != 2 or b.ndim != 2:
            raise ValueError("matmul requires 2-D arrays")
        if a.shape[1] != b.shape[0]:
            raise ValueError(f"inner dimensions differ: {a.shape} x {b.shape}")
        rows, inner = a.shape
        out = np.zeros((rows, b.shape[1]), dtype=np.uint8)
        shifted = a.astype(np.int32) << 8
        for t in range(inner):
            out ^= _MUL_FLAT.take(b[t, :] + shifted[:, t][:, None])
        return out

    @staticmethod
    def inv_vec(a: np.ndarray) -> np.ndarray:
        """Elementwise inverse; raises on any zero entry."""
        if np.any(a == 0):
            raise ZeroDivisionError("0 has no inverse in GF(2^8)")
        return _INV_TABLE[a]

    @staticmethod
    def scale_rows(scalars: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """``scalars[..., i] * rows[..., i, :]`` for every row, as one lookup.

        Leading axes are batch axes; ``rows`` broadcasts against
        ``scalars[..., None]``.
        """
        index = rows + (scalars.astype(np.int32) << 8)[..., None]
        return _MUL_FLAT.take(index)

    @staticmethod
    def combine(weights: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Weighted sum ``sum_i weights[..., i] * rows[..., i, :]`` over GF(2^8).

        The RLNC hot-path primitive: one (rank, width) basis takes one
        broadcasted table lookup and an XOR reduction, instead of a
        per-row Python loop. Leading axes are batch axes. A (B, rank,
        width) stack is summed one rank column at a time, as in
        :meth:`matmul`, so its int32 lookup index stays (B, width)
        instead of growing to (B, rank, width).
        """
        if rows.shape[-2] == 0:
            return np.zeros(rows.shape[:-2] + rows.shape[-1:], dtype=np.uint8)
        shifted = weights.astype(np.int32) << 8
        if rows.ndim == 2:
            index = rows + shifted[:, None]
            return np.bitwise_xor.reduce(_MUL_FLAT.take(index), axis=0)
        out = _MUL_FLAT.take(rows[..., 0, :] + shifted[..., 0, None])
        for i in range(1, rows.shape[-2]):
            out ^= _MUL_FLAT.take(rows[..., i, :] + shifted[..., i, None])
        return out

    # -- table access (read-only views, for tests) ---------------------------

    @staticmethod
    def exp_table() -> np.ndarray:
        view = _EXP.view()
        view.flags.writeable = False
        return view

    @staticmethod
    def log_table() -> np.ndarray:
        view = _LOG.view()
        view.flags.writeable = False
        return view
