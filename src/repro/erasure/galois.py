"""Arithmetic in the finite field GF(2^8).

The field is constructed with the primitive polynomial
``x^8 + x^4 + x^3 + x^2 + 1`` (0x11D), the same polynomial used by most
storage Reed-Solomon implementations (e.g. jerasure, ISA-L). Elements are
integers in ``[0, 255]``; addition is XOR.

Scalar helpers (:meth:`GF256.mul`, :meth:`GF256.inv`, ...) go through the
classic log/antilog tables. The bulk ``*_bytes`` helpers — the codec's hot
path — instead use a precomputed 256x256 full product table, ISA-L style:
``MUL_TABLE[scalar]`` is the complete multiplication row for ``scalar``.
Applying that row to a payload uses ``bytes.translate``, CPython's
single-pass 256-entry LUT map, which on this interpreter outruns every
numpy gather (``take`` / fancy indexing) by 2-5x because it never widens
the uint8 indices to ``intp``. :meth:`GF256.matvec_fragments` fuses an
entire ``(r, k) x (k, length)`` product into one translate+XOR pass per
nonzero coefficient — skipping zeros and turning ones into plain XORs, so
the near-identity decoder matrices of single-erasure reads cost almost
nothing. The seed kernel (masked log/exp lookups, Python double loop) is
preserved in :mod:`repro.erasure.reference` for property tests and
before/after benchmarks.
"""

from __future__ import annotations

from typing import ClassVar, List, Sequence, Union

import numpy as np
import numpy.typing as npt

from repro.errors import ErasureError

__all__ = ["GF256"]

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


def _build_mul_table(
    exp: npt.NDArray[np.uint8], log: npt.NDArray[np.int32]
) -> npt.NDArray[np.uint8]:
    """The full 256x256 product table: ``table[a, b] == a * b`` in GF(256).

    64 KiB of uint8 — small enough to live in L2 — built once from the
    log/antilog tables. Row 0 and column 0 stay zero.
    """
    table = np.zeros((_FIELD_SIZE, _FIELD_SIZE), dtype=np.uint8)
    nonzero_logs = log[1:]
    table[1:, 1:] = exp[nonzero_logs[:, None] + nonzero_logs[None, :]]
    return table


class GF256:
    """The finite field GF(2^8) with vectorised numpy operations.

    All methods are static-like; the class carries the shared tables. A
    module-level default instance is exposed as :data:`GF256.default` so
    callers do not rebuild tables.
    """

    #: Number of elements in the field.
    order: ClassVar[int] = _FIELD_SIZE
    #: The primitive polynomial, for documentation and interoperability.
    primitive_poly: ClassVar[int] = _PRIMITIVE_POLY
    #: Shared default instance, assigned once at module import.
    default: ClassVar["GF256"]

    def __init__(self) -> None:
        self._exp, self._log = _build_tables()
        self._mul_table = _build_mul_table(self._exp, self._log)
        self._mul_table.flags.writeable = False
        # Each row as a bytes object: the translation table for
        # ``bytes.translate``, the fastest per-byte LUT available here.
        self._row_bytes: List[bytes] = [
            self._mul_table[scalar].tobytes() for scalar in range(_FIELD_SIZE)
        ]

    @property
    def mul_table(self) -> npt.NDArray[np.uint8]:
        """The read-only 256x256 full product table (row = left factor)."""
        return self._mul_table

    @property
    def exp_table(self) -> npt.NDArray[np.uint8]:
        """The 512-entry antilog table (read by the reference kernel)."""
        return self._exp

    @property
    def log_table(self) -> npt.NDArray[np.int32]:
        """The discrete-log table (read by the reference kernel)."""
        return self._log

    # ------------------------------------------------------------------
    # Scalar arithmetic
    # ------------------------------------------------------------------
    @staticmethod
    def add(a: int, b: int) -> int:
        """Field addition (XOR). Identical to subtraction in GF(2^8)."""
        return (a ^ b) & 0xFF

    # Subtraction is addition in characteristic-2 fields.
    sub = add

    def mul(self, a: int, b: int) -> int:
        """Field multiplication via log/antilog tables."""
        if a == 0 or b == 0:
            return 0
        return int(self._exp[self._log[a] + self._log[b]])

    def inv(self, a: int) -> int:
        """Multiplicative inverse; raises on zero."""
        if a == 0:
            raise ZeroDivisionError("zero has no inverse in GF(256)")
        return int(self._exp[(_FIELD_SIZE - 1) - self._log[a]])

    def pow(self, a: int, n: int) -> int:
        """Raise ``a`` to the integer power ``n`` (n may be negative)."""
        if a == 0:
            if n == 0:
                return 1
            if n < 0:
                raise ZeroDivisionError("zero has no negative powers in GF(256)")
            return 0
        exponent = (self._log[a] * n) % (_FIELD_SIZE - 1)
        return int(self._exp[exponent])

    # ------------------------------------------------------------------
    # Vectorised arithmetic on uint8 arrays
    # ------------------------------------------------------------------
    def mul_bytes(
        self, scalar: int, data: npt.NDArray[np.uint8]
    ) -> npt.NDArray[np.uint8]:
        """Multiply every element of ``data`` by the field scalar ``scalar``.

        One ``bytes.translate`` pass through the scalar's product-table row
        — no zero mask, no log/antilog round trip, no scatter. Returns a
        fresh writable array.
        """
        if not 0 <= scalar < _FIELD_SIZE:
            raise ErasureError(f"scalar {scalar} outside GF(256)")
        if scalar == 0:
            return np.zeros_like(data)
        if scalar == 1:
            return data.copy()
        translated = bytearray(data.tobytes().translate(self._row_bytes[scalar]))
        return np.frombuffer(translated, dtype=np.uint8).reshape(data.shape)

    def addmul_bytes(
        self,
        accumulator: npt.NDArray[np.uint8],
        scalar: int,
        data: npt.NDArray[np.uint8],
    ) -> None:
        """In-place ``accumulator ^= scalar * data`` — the codec's hot loop."""
        if scalar == 0:
            return
        if scalar == 1:
            np.bitwise_xor(accumulator, data, out=accumulator)
            return
        product = np.frombuffer(
            data.tobytes().translate(self._row_bytes[scalar]), dtype=np.uint8
        ).reshape(data.shape)
        np.bitwise_xor(accumulator, product, out=accumulator)

    def matvec_fragments(
        self,
        matrix: npt.NDArray[np.uint8],
        fragments: Sequence[Union[bytes, bytearray, "npt.NDArray[np.uint8]"]],
    ) -> npt.NDArray[np.uint8]:
        """Multiply a coefficient matrix by ``k`` byte-string fragments.

        ``matrix`` is ``(r, k)``; ``fragments`` is a sequence of ``k``
        equal-length byte strings (or uint8 arrays). Returns a contiguous
        ``(r, length)`` uint8 stack where row ``i`` is the GF(256) linear
        combination ``sum_j matrix[i, j] * fragments[j]``.

        This is the fused kernel: each nonzero coefficient costs one
        translate pass (a coefficient of one costs only the XOR), products
        are XORed straight into the output row, and byte-string inputs —
        what device reads hand the codec — are consumed without any numpy
        staging or ``vstack``. Replaces the seed kernel's Python double
        loop over per-scalar masked multiplies.
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
        row_bytes = self._row_bytes
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
                        frag_bytes[j].translate(row_bytes[coefficient]), dtype=np.uint8
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
        self, matrix: npt.NDArray[np.uint8], fragments: npt.NDArray[np.uint8]
    ) -> npt.NDArray[np.uint8]:
        """Multiply a coefficient matrix by a stack of payload rows.

        ``matrix`` is ``(r, k)`` uint8; ``fragments`` is ``(k, length)``
        uint8. Returns ``(r, length)`` where row ``i`` is the GF(256) linear
        combination ``sum_j matrix[i, j] * fragments[j]``. Array-shaped
        front end of :meth:`matvec_fragments`.
        """
        rows, cols = (matrix.shape[0], matrix.shape[1]) if matrix.ndim == 2 else (-1, -1)
        if matrix.ndim != 2:
            raise ErasureError(f"coefficient matrix must be 2-D, got shape {matrix.shape}")
        if fragments.ndim != 2 or fragments.shape[0] != cols:
            raise ErasureError(
                f"matrix expects {cols} fragments, got "
                f"{fragments.shape[0] if fragments.ndim == 2 else fragments.shape}"
            )
        length = fragments.shape[1]
        if rows == 0 or cols == 0 or length == 0:
            return np.zeros((rows, length), dtype=np.uint8)
        return self.matvec_fragments(matrix, [fragments[j] for j in range(cols)])


#: Shared default field instance; building tables is cheap but not free.
GF256.default = GF256()
