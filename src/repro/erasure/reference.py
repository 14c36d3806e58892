"""The seed erasure kernel, kept verbatim as a reference implementation.

The fast kernel in :mod:`repro.erasure.galois` (full product table, fused
matvec) and :mod:`repro.erasure.rs` (cached decoder matrices) replaced the
original per-scalar masked log/exp path. That original is preserved here,
bit for bit, reading the module tables and scalar helpers of
:mod:`repro.erasure.galois`, for two jobs:

- **property tests** — the fused kernel must be bit-identical to this one
  on arbitrary matrices and payloads (``tests/erasure``);
- **before/after benchmarks** — ``benchmarks/test_rs_codec_microbench.py``
  times both kernels on the same inputs and records the speedup in
  ``BENCH_rs_codec.json``.

Nothing in the production path imports this module.
"""

from __future__ import annotations

from typing import List, Mapping, Sequence, Union

import numpy as np
import numpy.typing as npt

from repro.erasure.galois import EXP, LOG, inv, mul
from repro.erasure.rs import RSCodec
from repro.errors import ErasureError

__all__ = [
    "mul_bytes_reference",
    "addmul_bytes_reference",
    "matvec_bytes_reference",
    "invert_reference",
    "encode_reference",
    "decode_reference",
    "delta_update_reference",
]

_FIELD_SIZE = 256

#: One fragment payload, as the seed kernel accepted it.
Fragment = Union[bytes, bytearray, "npt.NDArray[np.uint8]"]


def mul_bytes_reference(scalar: int, data: npt.NDArray[np.uint8]) -> npt.NDArray[np.uint8]:
    """Seed scalar-times-payload: zero mask, two log/exp lookups, fancy-index scatter."""
    if not 0 <= scalar < _FIELD_SIZE:
        raise ErasureError(f"scalar {scalar} outside GF(256)")
    if scalar == 0:
        return np.zeros_like(data)
    if scalar == 1:
        return data.copy()
    log_scalar = int(LOG[scalar])
    result = np.zeros_like(data)
    nonzero = data != 0
    result[nonzero] = EXP[LOG[data[nonzero]] + log_scalar]
    return result


def addmul_bytes_reference(
    accumulator: npt.NDArray[np.uint8],
    scalar: int,
    data: npt.NDArray[np.uint8],
) -> None:
    """Seed multiply-accumulate: in-place ``accumulator ^= scalar * data``."""
    if scalar == 0:
        return
    if scalar == 1:
        np.bitwise_xor(accumulator, data, out=accumulator)
        return
    np.bitwise_xor(accumulator, mul_bytes_reference(scalar, data), out=accumulator)


def matvec_bytes_reference(
    matrix: npt.NDArray[np.uint8], fragments: npt.NDArray[np.uint8]
) -> npt.NDArray[np.uint8]:
    """Seed ``matvec_bytes``: Python double loop of scalar addmuls."""
    rows, cols = matrix.shape
    if fragments.shape[0] != cols:
        raise ErasureError(f"matrix expects {cols} fragments, got {fragments.shape[0]}")
    out = np.zeros((rows, fragments.shape[1]), dtype=np.uint8)
    for i in range(rows):
        accumulator = out[i]
        for j in range(cols):
            addmul_bytes_reference(accumulator, int(matrix[i, j]), fragments[j])
    return out


def invert_reference(matrix: npt.NDArray[np.uint8]) -> npt.NDArray[np.uint8]:
    """Seed Gauss-Jordan inversion: per-element scalar field ops in int32."""
    if matrix.shape[0] != matrix.shape[1]:
        raise ErasureError("only square matrices can be inverted")
    n = matrix.shape[0]
    work = matrix.astype(np.int32)
    inverse = np.eye(n, dtype=np.int32)
    for col in range(n):
        pivot_row = None
        for row in range(col, n):
            if work[row, col] != 0:
                pivot_row = row
                break
        if pivot_row is None:
            raise ErasureError("matrix is singular over GF(256)")
        if pivot_row != col:
            work[[col, pivot_row]] = work[[pivot_row, col]]
            inverse[[col, pivot_row]] = inverse[[pivot_row, col]]
        pivot_inv = inv(int(work[col, col]))
        for j in range(n):
            work[col, j] = mul(int(work[col, j]), pivot_inv)
            inverse[col, j] = mul(int(inverse[col, j]), pivot_inv)
        for row in range(n):
            if row == col or work[row, col] == 0:
                continue
            factor = int(work[row, col])
            for j in range(n):
                work[row, j] ^= mul(factor, int(work[col, j]))
                inverse[row, j] ^= mul(factor, int(inverse[col, j]))
    return inverse.astype(np.uint8)


def _as_uint8(fragment: Fragment) -> npt.NDArray[np.uint8]:
    if isinstance(fragment, np.ndarray):
        return fragment
    return np.frombuffer(bytes(fragment), dtype=np.uint8)


def encode_reference(codec: RSCodec, data: Sequence[Fragment]) -> List[bytes]:
    """Seed ``RSCodec.encode``: stack fragments, scalar-loop matvec."""
    arrays = [_as_uint8(fragment) for fragment in data]
    if codec.m == 0:
        return []
    stacked = np.vstack(arrays)
    parity = matvec_bytes_reference(codec.parity_matrix, stacked)
    return [parity[i].tobytes() for i in range(codec.m)]


def decode_reference(codec: RSCodec, fragments: Mapping[int, Fragment]) -> List[bytes]:
    """Seed ``RSCodec.decode``: re-invert the survivor submatrix every call."""
    available = sorted(fragments)
    if len(available) < codec.k:
        raise ErasureError(f"need {codec.k} fragments, got {len(available)}")
    if all(index in fragments for index in range(codec.k)):
        return [bytes(_as_uint8(fragments[i]).tobytes()) for i in range(codec.k)]
    chosen = available[: codec.k]
    decoder = invert_reference(codec.generator_matrix[chosen])
    stacked = np.vstack([_as_uint8(fragments[index]) for index in chosen])
    data = matvec_bytes_reference(decoder, stacked)
    return [data[i].tobytes() for i in range(codec.k)]


def delta_update_reference(
    codec: RSCodec,
    old_parity: Sequence[Fragment],
    fragment_index: int,
    old_data: Fragment,
    new_data: Fragment,
) -> List[bytes]:
    """Seed ``RSCodec.delta_update``: per-row scalar addmul of the delta."""
    delta = np.bitwise_xor(_as_uint8(old_data), _as_uint8(new_data))
    updated: List[bytes] = []
    for row in range(codec.m):
        parity = _as_uint8(old_parity[row]).copy()
        coefficient = int(codec.parity_matrix[row, fragment_index])
        addmul_bytes_reference(parity, coefficient, delta)
        updated.append(parity.tobytes())
    return updated
