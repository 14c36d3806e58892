"""Unit and property tests for GF(256) arithmetic."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.erasure.galois import GF256

FIELD = GF256.default

elements = st.integers(min_value=0, max_value=255)
nonzero = st.integers(min_value=1, max_value=255)


class TestScalarArithmetic:
    def test_add_is_xor(self):
        assert FIELD.add(0b1010, 0b0110) == 0b1100

    def test_add_identity(self):
        assert FIELD.add(123, 0) == 123

    def test_sub_is_add(self):
        assert FIELD.sub(77, 13) == FIELD.add(77, 13)

    def test_mul_by_zero(self):
        assert FIELD.mul(0, 200) == 0
        assert FIELD.mul(200, 0) == 0

    def test_mul_by_one(self):
        assert FIELD.mul(1, 200) == 200

    def test_known_product(self):
        # 2 * 128 wraps through the primitive polynomial 0x11D.
        assert FIELD.mul(2, 128) == (0x100 ^ 0x11D) & 0xFF

    def test_inv_of_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            FIELD.inv(0)

    def test_pow_zero_exponent(self):
        assert FIELD.pow(17, 0) == 1
        assert FIELD.pow(0, 0) == 1

    def test_pow_of_zero(self):
        assert FIELD.pow(0, 5) == 0
        with pytest.raises(ZeroDivisionError):
            FIELD.pow(0, -1)

    def test_pow_negative(self):
        assert FIELD.pow(9, -1) == FIELD.inv(9)

    def test_generator_order(self):
        # The generator g = 2 cycles with period 255: g^255 == 1.
        assert FIELD.pow(2, 255) == 1
        seen = {FIELD.pow(2, i) for i in range(255)}
        assert len(seen) == 255


class TestFieldLaws:
    @given(elements, elements)
    def test_add_commutative(self, a, b):
        assert FIELD.add(a, b) == FIELD.add(b, a)

    @given(elements, elements)
    def test_mul_commutative(self, a, b):
        assert FIELD.mul(a, b) == FIELD.mul(b, a)

    @given(elements, elements, elements)
    def test_mul_associative(self, a, b, c):
        assert FIELD.mul(FIELD.mul(a, b), c) == FIELD.mul(a, FIELD.mul(b, c))

    @given(elements, elements, elements)
    def test_distributive(self, a, b, c):
        left = FIELD.mul(a, FIELD.add(b, c))
        right = FIELD.add(FIELD.mul(a, b), FIELD.mul(a, c))
        assert left == right

    @given(nonzero)
    def test_inverse_roundtrip(self, a):
        assert FIELD.mul(a, FIELD.inv(a)) == 1

    @given(elements)
    def test_additive_self_inverse(self, a):
        assert FIELD.add(a, a) == 0

    @given(nonzero, st.integers(min_value=-10, max_value=10))
    def test_pow_matches_repeated_mul(self, a, n):
        expected = 1
        base = a if n >= 0 else FIELD.inv(a)
        for _ in range(abs(n)):
            expected = FIELD.mul(expected, base)
        assert FIELD.pow(a, n) == expected


class TestVectorised:
    def test_mul_bytes_matches_scalar(self):
        data = np.arange(256, dtype=np.uint8)
        for scalar in (0, 1, 2, 37, 255):
            expected = [FIELD.mul(scalar, int(v)) for v in data]
            assert list(FIELD.mul_bytes(scalar, data)) == expected

    def test_mul_bytes_rejects_out_of_range(self):
        from repro.errors import ErasureError

        with pytest.raises(ErasureError):
            FIELD.mul_bytes(256, np.zeros(4, dtype=np.uint8))

    def test_addmul_bytes_accumulates(self):
        acc = np.array([5, 5], dtype=np.uint8)
        data = np.array([1, 2], dtype=np.uint8)
        FIELD.addmul_bytes(acc, 3, data)
        assert list(acc) == [5 ^ FIELD.mul(3, 1), 5 ^ FIELD.mul(3, 2)]

    def test_addmul_scalar_zero_is_noop(self):
        acc = np.array([9, 9], dtype=np.uint8)
        FIELD.addmul_bytes(acc, 0, np.array([1, 1], dtype=np.uint8))
        assert list(acc) == [9, 9]

    @given(st.lists(elements, min_size=1, max_size=64), nonzero, nonzero)
    def test_mul_bytes_distributes_over_scalars(self, values, s1, s2):
        data = np.array(values, dtype=np.uint8)
        composed = FIELD.mul_bytes(FIELD.mul(s1, s2), data)
        chained = FIELD.mul_bytes(s1, FIELD.mul_bytes(s2, data))
        assert np.array_equal(composed, chained)

    def test_matvec_shape_mismatch(self):
        from repro.errors import ErasureError

        matrix = np.ones((2, 3), dtype=np.uint8)
        fragments = np.zeros((2, 8), dtype=np.uint8)
        with pytest.raises(ErasureError):
            FIELD.matvec_bytes(matrix, fragments)
