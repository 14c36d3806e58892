"""Tests for GF(256) matrices: products, inversion and the Cauchy construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.erasure.galois import cauchy_matrix, invert, matvec_bytes, mul
from repro.errors import ErasureError


def matrix(rows):
    return np.array(rows, dtype=np.uint8)


def is_identity(m):
    return m.shape[0] == m.shape[1] and np.array_equal(m, np.eye(m.shape[0], dtype=np.uint8))


class TestConstruction:
    def test_rejects_non_2d(self):
        with pytest.raises(ErasureError):
            invert(np.zeros(3, dtype=np.uint8))
        with pytest.raises(ErasureError):
            matvec_bytes(np.zeros(3, dtype=np.uint8), np.zeros((3, 4), dtype=np.uint8))


class TestMultiplication:
    def test_identity_is_neutral(self):
        m = matrix([[7, 11], [13, 17]])
        eye = np.eye(2, dtype=np.uint8)
        assert np.array_equal(matvec_bytes(eye, m), m)
        assert np.array_equal(matvec_bytes(m, eye), m)

    def test_shape_mismatch(self):
        with pytest.raises(ErasureError):
            matvec_bytes(matrix([[1, 2]]), matrix([[1, 2]]))

    def test_known_product(self):
        product = matvec_bytes(matrix([[2, 3]]), matrix([[5], [7]]))
        assert product[0, 0] == mul(2, 5) ^ mul(3, 7)


class TestInversion:
    def test_identity_inverse(self):
        assert is_identity(invert(np.eye(3, dtype=np.uint8)))

    def test_inverse_roundtrip(self):
        m = cauchy_matrix(4, 4)
        assert is_identity(matvec_bytes(m, invert(m)))
        assert is_identity(matvec_bytes(invert(m), m))

    def test_singular_raises(self):
        with pytest.raises(ErasureError):
            invert(matrix([[1, 1], [1, 1]]))

    def test_non_square_raises(self):
        with pytest.raises(ErasureError):
            invert(matrix([[1, 2, 3], [4, 5, 6]]))

    def test_inversion_with_row_swap(self):
        # Leading zero forces a pivot swap.
        m = matrix([[0, 1], [1, 0]])
        assert is_identity(matvec_bytes(m, invert(m)))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=10_000))
    def test_random_cauchy_submatrices_invert(self, size, seed):
        # Any square row/column selection of a Cauchy matrix is invertible.
        rng = np.random.default_rng(seed)
        full = cauchy_matrix(8, 8)
        rows = sorted(rng.choice(8, size=size, replace=False).tolist())
        cols = sorted(rng.choice(8, size=size, replace=False).tolist())
        sub = full[np.ix_(rows, cols)]
        assert is_identity(matvec_bytes(sub, invert(sub)))


class TestGeneratorConstructions:
    def test_cauchy_shape(self):
        c = cauchy_matrix(2, 5)
        assert c.shape == (2, 5)
        assert c.dtype == np.uint8

    def test_cauchy_no_zero_entries(self):
        c = cauchy_matrix(4, 8)
        assert np.all(c != 0)

    def test_cauchy_size_limit(self):
        with pytest.raises(ErasureError):
            cauchy_matrix(200, 100)
