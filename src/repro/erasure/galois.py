"""Arithmetic in the finite field GF(2^8), and the matrices Reed-Solomon needs.

The field is constructed with the primitive polynomial
``x^8 + x^4 + x^3 + x^2 + 1`` (0x11D), the same polynomial used by most
storage Reed-Solomon implementations (e.g. jerasure, ISA-L). Elements are
integers in ``[0, 255]``; addition is XOR.

Everything here is a module-level table or a plain function over uint8
arrays, built once at import:

- :data:`EXP` / :data:`LOG` — the classic antilog/log tables, read by the
  scalar helpers :func:`mul` and :func:`inv`;
- :data:`MUL_TABLE` — the full 256x256 product table, ISA-L style:
  ``MUL_TABLE[scalar]`` is the complete multiplication row for ``scalar``;
- :data:`MUL_ROWS` — each of those rows as ``bytes``. Applying a row to a
  payload uses ``bytes.translate``, CPython's single-pass 256-entry LUT map,
  which on this interpreter outruns every numpy gather (``take`` / fancy
  indexing) by 2-5x because it never widens the uint8 indices to ``intp``.

:func:`matvec_fragments` fuses an entire ``(r, k) x (k, length)`` product
into one translate+XOR pass per nonzero coefficient — skipping zeros and
turning ones into plain XORs, so the near-identity decoder matrices of
single-erasure reads cost almost nothing. :func:`cauchy_matrix` and
:func:`invert` build the codec's generator and decoder matrices. The seed
kernel (masked log/exp lookups, Python double loop) is preserved in
:mod:`repro.erasure.reference` for property tests and before/after
benchmarks.
"""

from __future__ import annotations

from typing import List, Sequence, Union

import numpy as np
import numpy.typing as npt

from repro.errors import ErasureError

__all__ = [
    "EXP",
    "LOG",
    "MUL_ROWS",
    "MUL_TABLE",
    "cauchy_matrix",
    "inv",
    "invert",
    "matvec_bytes",
    "matvec_fragments",
    "mul",
]

_PRIMITIVE_POLY = 0x11D
_FIELD_SIZE = 256


def _build_tables() -> "tuple[npt.NDArray[np.uint8], npt.NDArray[np.int32]]":
    """Build the antilog (exp) and log tables for the field.

    ``exp`` has 512 entries so products of two logs (max 254 + 254) can be
    looked up without a modulo reduction in the hot path.
    """
    exp = np.zeros(2 * _FIELD_SIZE, dtype=np.uint8)
    log = np.zeros(_FIELD_SIZE, dtype=np.int32)
    value = 1
    for power in range(_FIELD_SIZE - 1):
        exp[power] = value
        log[value] = power
        value <<= 1
        if value & 0x100:
            value ^= _PRIMITIVE_POLY
    # Replicate the cycle so exp[i] == exp[i + 255] for i in [0, 255).
    for power in range(_FIELD_SIZE - 1, 2 * _FIELD_SIZE):
        exp[power] = exp[power - (_FIELD_SIZE - 1)]
    return exp, log


#: The 512-entry antilog table and the discrete-log table.
EXP, LOG = _build_tables()

#: The full 256x256 product table: ``MUL_TABLE[a, b] == a * b`` in GF(256).
#: 64 KiB of uint8 — small enough to live in L2. Row 0 and column 0 are zero.
MUL_TABLE = np.zeros((_FIELD_SIZE, _FIELD_SIZE), dtype=np.uint8)
MUL_TABLE[1:, 1:] = EXP[LOG[1:, None] + LOG[None, 1:]]

EXP.flags.writeable = LOG.flags.writeable = MUL_TABLE.flags.writeable = False

#: Each product-table row as ``bytes``: the translation table for
#: ``bytes.translate``, the fastest per-byte LUT available here.
MUL_ROWS: List[bytes] = [row.tobytes() for row in MUL_TABLE]


def mul(a: int, b: int) -> int:
    """Field multiplication via log/antilog tables."""
    if a == 0 or b == 0:
        return 0
    return int(EXP[LOG[a] + LOG[b]])


def inv(a: int) -> int:
    """Multiplicative inverse; raises on zero."""
    if a == 0:
        raise ZeroDivisionError("zero has no inverse in GF(256)")
    return int(EXP[(_FIELD_SIZE - 1) - LOG[a]])


def matvec_fragments(
    matrix: npt.NDArray[np.uint8],
    fragments: Sequence[Union[bytes, bytearray, memoryview, "npt.NDArray[np.uint8]"]],
) -> npt.NDArray[np.uint8]:
    """Multiply a coefficient matrix by ``k`` byte-string fragments.

    ``matrix`` is ``(r, k)``; ``fragments`` is a sequence of ``k``
    equal-length byte strings (or uint8 arrays). Returns a contiguous
    ``(r, length)`` uint8 stack where row ``i`` is the GF(256) linear
    combination ``sum_j matrix[i, j] * fragments[j]``.

    This is the fused kernel: each nonzero coefficient costs one translate
    pass (a coefficient of one costs only the XOR), products are XORed
    straight into the output row, and byte-string inputs — what device
    reads hand the codec — are consumed without any numpy staging or
    ``vstack``. Replaces the seed kernel's Python double loop over
    per-scalar masked multiplies.
    """
    if matrix.ndim != 2:
        raise ErasureError(f"coefficient matrix must be 2-D, got shape {matrix.shape}")
    rows, cols = matrix.shape
    if len(fragments) != cols:
        raise ErasureError(f"matrix expects {cols} fragments, got {len(fragments)}")
    frag_bytes: List[bytes] = [
        fragment.tobytes() if isinstance(fragment, np.ndarray) else bytes(fragment)
        for fragment in fragments
    ]
    if cols == 0:
        return np.zeros((rows, 0), dtype=np.uint8)
    length = len(frag_bytes[0])
    if any(len(fragment) != length for fragment in frag_bytes):
        raise ErasureError("fragments must be equal-size")
    out = np.empty((rows, length), dtype=np.uint8)
    for i in range(rows):
        out_row = out[i]
        started = False
        for j in range(cols):
            coefficient = int(matrix[i, j])
            if coefficient == 0:
                continue
            if coefficient == 1:
                product = np.frombuffer(frag_bytes[j], dtype=np.uint8)
            else:
                product = np.frombuffer(
                    frag_bytes[j].translate(MUL_ROWS[coefficient]), dtype=np.uint8
                )
            if started:
                np.bitwise_xor(out_row, product, out=out_row)
            else:
                np.copyto(out_row, product)
                started = True
        if not started:
            out_row.fill(0)
    return out


def matvec_bytes(
    matrix: npt.NDArray[np.uint8], fragments: npt.NDArray[np.uint8]
) -> npt.NDArray[np.uint8]:
    """Multiply a coefficient matrix by a stack of payload rows.

    ``matrix`` is ``(r, k)`` uint8; ``fragments`` is ``(k, length)`` uint8.
    Returns ``(r, length)`` where row ``i`` is the GF(256) linear combination
    ``sum_j matrix[i, j] * fragments[j]`` — also the matrix product over
    GF(256). Array-shaped front end of :func:`matvec_fragments`.
    """
    if matrix.ndim != 2:
        raise ErasureError(f"coefficient matrix must be 2-D, got shape {matrix.shape}")
    rows, cols = matrix.shape
    if fragments.ndim != 2 or fragments.shape[0] != cols:
        raise ErasureError(
            f"matrix expects {cols} fragments, got "
            f"{fragments.shape[0] if fragments.ndim == 2 else fragments.shape}"
        )
    length = fragments.shape[1]
    if rows == 0 or cols == 0 or length == 0:
        return np.zeros((rows, length), dtype=np.uint8)
    return matvec_fragments(matrix, [fragments[j] for j in range(cols)])


def cauchy_matrix(rows: int, cols: int) -> npt.NDArray[np.uint8]:
    """A Cauchy matrix ``C[i, j] = 1 / (x_i + y_j)`` with disjoint x, y sets.

    Every square sub-matrix of a Cauchy matrix is invertible, which makes a
    ``[I ; C]`` systematic generator matrix MDS: any ``k`` surviving
    fragments suffice to decode. Requires ``rows + cols <= 256``.
    """
    if rows + cols > _FIELD_SIZE:
        raise ErasureError("cauchy matrix needs rows + cols <= 256")
    data = [[inv(x ^ y) for y in range(cols)] for x in range(cols, cols + rows)]
    return np.array(data, dtype=np.uint8).reshape(rows, cols)


def invert(matrix: npt.NDArray[np.uint8]) -> npt.NDArray[np.uint8]:
    """Gauss-Jordan inversion; raises :class:`ErasureError` if singular.

    Elimination works on whole uint8 rows: scaling a row and folding the
    pivot row into another are each one gather through the full product
    table plus an XOR, instead of the seed's per-element scalar loop.
    Returns a fresh ``(n, n)`` array.
    """
    matrix = np.asarray(matrix, dtype=np.uint8)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ErasureError("only square matrices can be inverted")
    n = matrix.shape[0]
    # Augmented [A | I]: eliminate on both halves in one (n, 2n) array.
    work = np.hstack([matrix, np.eye(n, dtype=np.uint8)])
    for col in range(n):
        pivots = np.nonzero(work[col:, col])[0]
        if pivots.size == 0:
            raise ErasureError("matrix is singular over GF(256)")
        pivot_row = col + int(pivots[0])
        if pivot_row != col:
            work[[col, pivot_row]] = work[[pivot_row, col]]
        pivot_inv = inv(int(work[col, col]))
        if pivot_inv != 1:
            work[col] = MUL_TABLE[pivot_inv][work[col]]
        factors = work[:, col].copy()
        factors[col] = 0
        for row in np.nonzero(factors)[0]:
            work[row] ^= MUL_TABLE[int(factors[row])][work[col]]
    return work[:, n:].copy()
