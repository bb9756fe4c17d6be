"""Tests for GF(2^8) arithmetic, including property-based field axioms."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.coding.gf256 import _INV_TABLE, _MUL_FLAT, _MUL_TABLE, GF256

elements = st.integers(min_value=0, max_value=255)
nonzero = st.integers(min_value=1, max_value=255)


class TestBasicValues:
    def test_add_is_xor(self):
        assert GF256.add(0b1010, 0b0110) == 0b1100

    def test_add_self_is_zero(self):
        assert GF256.add(123, 123) == 0

    def test_mul_identity(self):
        assert GF256.mul(1, 77) == 77

    def test_mul_zero(self):
        assert GF256.mul(0, 77) == 0
        assert GF256.mul(77, 0) == 0

    def test_known_aes_product(self):
        # 0x53 * 0xCA = 0x01 under the AES polynomial — a standard check.
        assert GF256.mul(0x53, 0xCA) == 0x01

    def test_inv_of_one(self):
        assert GF256.inv(1) == 1

    def test_inv_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            GF256.inv(0)

    def test_div_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            GF256.div(1, 0)

    def test_div_zero_numerator(self):
        assert GF256.div(0, 5) == 0

    def test_pow_basics(self):
        assert GF256.pow(2, 0) == 1
        assert GF256.pow(2, 1) == 2
        assert GF256.pow(0, 0) == 1
        assert GF256.pow(0, 5) == 0

    def test_pow_negative_of_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            GF256.pow(0, -1)

    def test_pow_negative(self):
        a = 19
        assert GF256.mul(GF256.pow(a, -1), a) == 1

    def test_generator_has_full_order(self):
        seen = set()
        value = 1
        for _ in range(255):
            seen.add(value)
            value = GF256.mul(value, GF256.generator)
        assert len(seen) == 255
        assert value == 1  # full cycle returns to identity


class TestFieldAxiomsProperty:
    @given(elements, elements)
    def test_add_commutative(self, a, b):
        assert GF256.add(a, b) == GF256.add(b, a)

    @given(elements, elements)
    def test_mul_commutative(self, a, b):
        assert GF256.mul(a, b) == GF256.mul(b, a)

    @given(elements, elements, elements)
    def test_add_associative(self, a, b, c):
        assert GF256.add(GF256.add(a, b), c) == GF256.add(a, GF256.add(b, c))

    @given(elements, elements, elements)
    def test_mul_associative(self, a, b, c):
        assert GF256.mul(GF256.mul(a, b), c) == GF256.mul(a, GF256.mul(b, c))

    @given(elements, elements, elements)
    def test_distributivity(self, a, b, c):
        left = GF256.mul(a, GF256.add(b, c))
        right = GF256.add(GF256.mul(a, b), GF256.mul(a, c))
        assert left == right

    @given(nonzero)
    def test_inverse_roundtrip(self, a):
        assert GF256.mul(a, GF256.inv(a)) == 1

    @given(elements, nonzero)
    def test_div_mul_roundtrip(self, a, b):
        assert GF256.mul(GF256.div(a, b), b) == a

    @given(nonzero, st.integers(min_value=-10, max_value=10))
    def test_pow_matches_repeated_mul(self, a, e):
        expected = 1
        if e >= 0:
            for _ in range(e):
                expected = GF256.mul(expected, a)
        else:
            inv = GF256.inv(a)
            for _ in range(-e):
                expected = GF256.mul(expected, inv)
        assert GF256.pow(a, e) == expected


class TestVectorOps:
    def test_mul_vec_matches_scalar(self):
        a = np.array([0, 1, 2, 255], dtype=np.uint8)
        b = np.array([7, 7, 7, 7], dtype=np.uint8)
        out = GF256.mul_vec(a, b)
        for i in range(len(a)):
            assert out[i] == GF256.mul(int(a[i]), int(b[i]))

    def test_scale_vec(self):
        v = np.arange(256, dtype=np.uint8)
        out = GF256.scale_vec(3, v)
        for i in (0, 1, 17, 255):
            assert out[i] == GF256.mul(3, i)

    def test_add_vec(self):
        a = np.array([1, 2, 3], dtype=np.uint8)
        assert np.array_equal(GF256.add_vec(a, a), np.zeros(3, dtype=np.uint8))

    def test_dot_vec(self):
        a = np.array([1, 2], dtype=np.uint8)
        b = np.array([3, 4], dtype=np.uint8)
        expected = GF256.add(GF256.mul(1, 3), GF256.mul(2, 4))
        assert GF256.dot_vec(a, b) == expected

    def test_dot_vec_empty(self):
        e = np.array([], dtype=np.uint8)
        assert GF256.dot_vec(e, e) == 0

    def test_dot_vec_shape_mismatch(self):
        with pytest.raises(ValueError):
            GF256.dot_vec(
                np.array([1], dtype=np.uint8), np.array([1, 2], dtype=np.uint8)
            )

    def test_inv_vec(self):
        v = np.arange(1, 256, dtype=np.uint8)
        out = GF256.inv_vec(v)
        assert np.array_equal(
            GF256.mul_vec(v, out), np.ones(255, dtype=np.uint8)
        )

    def test_inv_vec_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            GF256.inv_vec(np.array([0, 1], dtype=np.uint8))


class TestMatmul:
    def test_identity(self):
        eye = np.eye(4, dtype=np.uint8)
        m = np.arange(16, dtype=np.uint8).reshape(4, 4)
        assert np.array_equal(GF256.matmul(eye, m), m)

    def test_matches_scalar_definition(self):
        a = np.array([[1, 2], [3, 4]], dtype=np.uint8)
        b = np.array([[5, 6], [7, 8]], dtype=np.uint8)
        out = GF256.matmul(a, b)
        for i in range(2):
            for j in range(2):
                expected = GF256.add(
                    GF256.mul(int(a[i, 0]), int(b[0, j])),
                    GF256.mul(int(a[i, 1]), int(b[1, j])),
                )
                assert out[i, j] == expected

    def test_dimension_check(self):
        a = np.zeros((2, 3), dtype=np.uint8)
        b = np.zeros((2, 3), dtype=np.uint8)
        with pytest.raises(ValueError):
            GF256.matmul(a, b)

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            GF256.matmul(
                np.zeros(3, dtype=np.uint8), np.zeros((3, 1), dtype=np.uint8)
            )

    def test_empty_inner_dimension(self):
        a = np.zeros((3, 0), dtype=np.uint8)
        b = np.zeros((0, 4), dtype=np.uint8)
        out = GF256.matmul(a, b)
        assert out.shape == (3, 4)
        assert out.dtype == np.uint8
        assert not out.any()

    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_broadcast_matches_reference(self, rows, inner, cols, seed):
        # the reference is the entry-by-entry definition of the product
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 256, size=(rows, inner), dtype=np.uint8)
        b = rng.integers(0, 256, size=(inner, cols), dtype=np.uint8)
        out = GF256.matmul(a, b)
        assert out.dtype == np.uint8
        assert out.shape == (rows, cols)
        for i in range(rows):
            for j in range(cols):
                expected = 0
                for t in range(inner):
                    expected = GF256.add(
                        expected, GF256.mul(int(a[i, t]), int(b[t, j]))
                    )
                assert out[i, j] == expected, (i, j)


class TestTables:
    def test_tables_read_only(self):
        with pytest.raises(ValueError):
            GF256.exp_table()[0] = 5
        with pytest.raises(ValueError):
            GF256.log_table()[1] = 5

    def test_exp_log_consistency(self):
        exp, log = GF256.exp_table(), GF256.log_table()
        for a in (1, 2, 3, 100, 255):
            assert exp[int(log[a])] == a

    def test_mul_table_is_carryless_product_mod_aes_polynomial(self):
        # every one of the 65,536 entries, from first principles:
        # shift-and-XOR polynomial product, then reduce mod 0x11B
        a = np.arange(256, dtype=np.int64)[:, None]
        b = np.arange(256, dtype=np.int64)[None, :]
        product = np.zeros((256, 256), dtype=np.int64)
        for bit in range(8):
            product ^= (a << bit) * ((b >> bit) & 1)
        for bit in range(14, 7, -1):
            product ^= ((product >> bit) & 1) * (0x11B << (bit - 8))
        assert np.array_equal(_MUL_TABLE, product.astype(np.uint8))
        assert np.array_equal(_MUL_FLAT, _MUL_TABLE.reshape(65536))
        nonzero = np.arange(1, 256)
        assert np.all(_MUL_TABLE[nonzero, _INV_TABLE[nonzero]] == 1)
        assert _INV_TABLE[0] == 0
