"""Unit and property tests for GF(256) arithmetic."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.erasure.galois import EXP, LOG, MUL_TABLE, inv, matvec_bytes, mul
from repro.errors import ErasureError

elements = st.integers(min_value=0, max_value=255)
nonzero = st.integers(min_value=1, max_value=255)


def scale(scalar, data):
    """``scalar * data`` through the fused kernel: a 1x1 coefficient matrix."""
    return matvec_bytes(np.array([[scalar]], dtype=np.uint8), data[None, :])[0]


class TestScalarArithmetic:
    def test_mul_by_zero(self):
        assert mul(0, 200) == 0
        assert mul(200, 0) == 0

    def test_mul_by_one(self):
        assert mul(1, 200) == 200

    def test_known_product(self):
        # 2 * 128 wraps through the primitive polynomial 0x11D.
        assert mul(2, 128) == (0x100 ^ 0x11D) & 0xFF

    def test_inv_of_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            inv(0)

    def test_generator_order(self):
        # The generator g = 2 cycles with period 255: g^255 == 1.
        assert EXP[255] == 1
        assert len(set(EXP[:255].tolist())) == 255
        assert all(LOG[EXP[power]] == power for power in range(255))

    def test_tables_are_read_only(self):
        for table in (EXP, LOG, MUL_TABLE):
            with pytest.raises(ValueError):
                table[1] = 0


class TestFieldLaws:
    @given(elements, elements)
    def test_mul_commutative(self, a, b):
        assert mul(a, b) == mul(b, a)

    @given(elements, elements, elements)
    def test_mul_associative(self, a, b, c):
        assert mul(mul(a, b), c) == mul(a, mul(b, c))

    @given(elements, elements, elements)
    def test_distributive(self, a, b, c):
        assert mul(a, b ^ c) == mul(a, b) ^ mul(a, c)

    @given(nonzero)
    def test_inverse_roundtrip(self, a):
        assert mul(a, inv(a)) == 1


class TestVectorised:
    def test_mul_bytes_matches_scalar(self):
        data = np.arange(256, dtype=np.uint8)
        for scalar in (0, 1, 2, 37, 255):
            expected = [mul(scalar, int(v)) for v in data]
            assert list(scale(scalar, data)) == expected

    def test_addmul_bytes_accumulates(self):
        acc = np.array([5, 5], dtype=np.uint8)
        data = np.array([1, 2], dtype=np.uint8)
        out = matvec_bytes(np.array([[1, 3]], dtype=np.uint8), np.vstack([acc, data]))
        assert list(out[0]) == [5 ^ mul(3, 1), 5 ^ mul(3, 2)]

    def test_addmul_scalar_zero_is_noop(self):
        acc = np.array([9, 9], dtype=np.uint8)
        data = np.array([1, 1], dtype=np.uint8)
        out = matvec_bytes(np.array([[1, 0]], dtype=np.uint8), np.vstack([acc, data]))
        assert list(out[0]) == [9, 9]

    @given(st.lists(elements, min_size=1, max_size=64), nonzero, nonzero)
    def test_mul_bytes_distributes_over_scalars(self, values, s1, s2):
        data = np.array(values, dtype=np.uint8)
        assert np.array_equal(scale(mul(s1, s2), data), scale(s1, scale(s2, data)))

    def test_matvec_shape_mismatch(self):
        matrix = np.ones((2, 3), dtype=np.uint8)
        fragments = np.zeros((2, 8), dtype=np.uint8)
        with pytest.raises(ErasureError):
            matvec_bytes(matrix, fragments)
