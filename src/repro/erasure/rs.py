"""Systematic Reed-Solomon codec with erasure decoding.

:class:`RSCodec` encodes ``k`` equal-size data fragments into ``k + m``
fragments (the originals plus ``m`` parity fragments) such that *any* ``k``
surviving fragments reconstruct the data — the MDS property the paper relies
on (§II-B). Parity rows come from a Cauchy matrix, whose every square
sub-matrix is invertible, so decoding is always possible when at most ``m``
fragments are erased.

The hot paths run on the fused GF(256) kernel (:mod:`repro.erasure.galois`):
encode and decode are each a single :func:`~repro.erasure.galois.matvec_fragments`
over ``k`` fragments, and the ``*_arrays`` variants let callers
(the flash array) move whole stripes without per-fragment byte rewrapping.
Decoder matrices are memoized in an LRU keyed by the survivor-index tuple,
so a device failure — which presents the same survivor pattern for every
stripe it touched — inverts each submatrix exactly once and every
subsequent degraded read or rebuild is a pure table-gather matvec.

Both parity-update strategies discussed in the paper are implemented:

- **direct parity update** — re-read the sibling data fragments and re-encode;
- **delta parity update** — read the old data fragment and old parity, and
  apply ``P' = P + coeff * (D' + D)``.

:meth:`RSCodec.plan_update` reports the chunk-read cost of each so the caller
can pick the cheaper one, exactly as the paper says it does.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple, Union

import numpy as np
import numpy.typing as npt

from repro.erasure.galois import (
    MUL_TABLE,
    cauchy_matrix,
    inv,
    invert,
    matvec_bytes,
    matvec_fragments,
)
from repro.errors import ErasureError, UnrecoverableDataError

__all__ = ["DecoderCacheInfo", "RSCodec", "UpdatePlan"]

#: Distinct survivor patterns memoized per codec. Real failure scenarios
#: produce a handful of patterns (one per failed-device combination), so
#: this is generous; it only guards against pathological churn.
_DECODER_CACHE_SIZE = 128

#: What callers may hand the codec as one fragment payload.
Fragment = Union[bytes, bytearray, memoryview, "npt.NDArray[np.uint8]"]


def _as_array(
    fragment: Union[bytes, bytearray, memoryview, "npt.NDArray[np.uint8]"]
) -> npt.NDArray[np.uint8]:
    """View a fragment as a uint8 numpy array without copying.

    ``bytes``/``bytearray``/``memoryview`` inputs are wrapped zero-copy via
    ``np.frombuffer``; the view is marked read-only so a shared buffer can
    never be scribbled on through the codec (callers copy before mutating).
    """
    if isinstance(fragment, np.ndarray):
        if fragment.dtype != np.uint8:
            raise ErasureError("fragments must be uint8 arrays")
        return fragment
    array = np.frombuffer(fragment, dtype=np.uint8)
    if array.flags.writeable:
        array.flags.writeable = False
    return array


@dataclass(frozen=True)
class UpdatePlan:
    """The cheaper of the two parity-update strategies for one write.

    Attributes:
        method: ``"delta"`` or ``"direct"``.
        reads: number of fragments that must be read before re-encoding.
    """

    method: str
    reads: int


@dataclass(frozen=True)
class DecoderCacheInfo:
    """Counters for one codec's memoized decoder matrices."""

    hits: int
    misses: int
    size: int
    maxsize: int


class RSCodec:
    """Reed-Solomon codec over GF(256) for ``k`` data + ``m`` parity fragments.

    Args:
        data_fragments: ``k``, the number of data fragments per stripe.
        parity_fragments: ``m``, the number of parity fragments per stripe.

    ``m = 0`` is allowed and degenerates to "no redundancy": encode returns
    an empty parity list and any erasure is unrecoverable.
    """

    def __init__(self, data_fragments: int, parity_fragments: int) -> None:
        if data_fragments < 1:
            raise ErasureError("need at least one data fragment")
        if parity_fragments < 0:
            raise ErasureError("parity fragment count cannot be negative")
        if data_fragments + parity_fragments > 256:
            raise ErasureError("k + m must not exceed 256 for GF(256) codes")
        self.k = data_fragments
        self.m = parity_fragments
        self.n = data_fragments + parity_fragments
        if parity_fragments:
            # Plank and Xu's "good Cauchy" form: scale columns so row 0 is all
            # ones, then rows so column 0 is. Nonzero scalings keep every
            # square submatrix invertible (MDS), and P parity becomes an XOR.
            cauchy = cauchy_matrix(parity_fragments, data_fragments)
            cauchy = MUL_TABLE[[inv(int(c)) for c in cauchy[0]], cauchy]
            self._parity_matrix = MUL_TABLE[[[inv(int(c))] for c in cauchy[:, 0]], cauchy]
        else:
            self._parity_matrix = np.zeros((0, data_fragments), dtype=np.uint8)
        # Full systematic generator: data rows are the identity.
        self._generator = np.vstack(
            [np.eye(data_fragments, dtype=np.uint8), self._parity_matrix]
        )
        # Memoized decoder matrices, keyed by the survivor-index tuple.
        self._decoders: "OrderedDict[Tuple[int, ...], npt.NDArray[np.uint8]]" = (
            OrderedDict()
        )
        self._decoder_hits = 0
        self._decoder_misses = 0

    # ------------------------------------------------------------------
    # Introspection (also consumed by the reference kernel and benchmarks)
    # ------------------------------------------------------------------
    @property
    def parity_matrix(self) -> npt.NDArray[np.uint8]:
        """The ``(m, k)`` normalized Cauchy parity rows (read-only by convention)."""
        return self._parity_matrix

    @property
    def generator_matrix(self) -> npt.NDArray[np.uint8]:
        """The full ``(n, k)`` systematic generator ``[I ; C]``."""
        return self._generator

    def decoder_cache_info(self) -> DecoderCacheInfo:
        """Hit/miss counters for the memoized decoder matrices."""
        return DecoderCacheInfo(
            hits=self._decoder_hits,
            misses=self._decoder_misses,
            size=len(self._decoders),
            maxsize=_DECODER_CACHE_SIZE,
        )

    def clear_decoder_cache(self) -> None:
        """Drop memoized decoders (benchmarks use this to time cold decodes)."""
        self._decoders.clear()

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def encode_arrays(self, stacked: npt.NDArray[np.uint8]) -> npt.NDArray[np.uint8]:
        """Parity for a ``(k, length)`` fragment stack, as ``(m, length)``.

        The array-native entry point: one fused matvec, no per-fragment
        conversions. ``m = 0`` yields a ``(0, length)`` result.
        """
        if stacked.ndim != 2 or stacked.shape[0] != self.k:
            raise ErasureError(
                f"expected a ({self.k}, length) fragment stack, got shape {stacked.shape}"
            )
        return matvec_bytes(self._parity_matrix, stacked)

    def encode(self, data: Sequence[Fragment]) -> List[bytes]:
        """Compute the ``m`` parity fragments for ``k`` data fragments."""
        self._check_data(data)
        if self.m == 0:
            return []
        # Byte-string fragments feed the translate kernel directly, no stack.
        parity = matvec_fragments(self._parity_matrix, list(data))
        return [parity[i].tobytes() for i in range(self.m)]

    def encode_stripe(self, data: Sequence[Fragment]) -> List[bytes]:
        """Return all ``n`` fragments: the data followed by the parity."""
        parity = self.encode(data)
        return [bytes(_as_array(fragment).tobytes()) for fragment in data] + parity

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def _decoder_for(self, chosen: Tuple[int, ...]) -> npt.NDArray[np.uint8]:
        """The inverse of the survivor submatrix, memoized per survivor set."""
        decoders = self._decoders
        decoder = decoders.get(chosen)
        if decoder is not None:
            self._decoder_hits += 1
            decoders.move_to_end(chosen)
            return decoder
        self._decoder_misses += 1
        decoder = invert(self._generator[list(chosen)])
        decoder.flags.writeable = False
        decoders[chosen] = decoder
        if len(decoders) > _DECODER_CACHE_SIZE:
            decoders.popitem(last=False)
        return decoder

    def decode_arrays(self, fragments: Mapping[int, Fragment]) -> npt.NDArray[np.uint8]:
        """Recover the data as a contiguous ``(k, length)`` stack.

        Array-native sibling of :meth:`decode`: the flash array reads whole
        stripes through this and emits ``stack.tobytes()`` directly.

        Raises:
            UnrecoverableDataError: fewer than ``k`` fragments supplied.
        """
        available = sorted(fragments)
        if any(index < 0 or index >= self.n for index in available):
            raise ErasureError(f"fragment index outside [0, {self.n})")
        if len(available) < self.k:
            raise UnrecoverableDataError(
                f"need {self.k} fragments to decode, only {len(available)} survive"
            )
        # Fast path: all data fragments are present.
        if all(index in fragments for index in range(self.k)):
            return np.vstack([_as_array(fragments[i]) for i in range(self.k)])
        chosen = tuple(available[: self.k])
        decoder = self._decoder_for(chosen)
        # Survivors go to the kernel as raw byte strings; the memoized
        # decoder is near-identity for surviving data fragments, so those
        # rows cost a copy and only erased rows pay translate passes.
        return matvec_fragments(decoder, [fragments[index] for index in chosen])

    def decode(self, fragments: Mapping[int, Fragment]) -> List[bytes]:
        """Recover the ``k`` data fragments from any ``k`` survivors.

        Args:
            fragments: mapping from fragment index (``0 .. n-1``) to payload.
                Indices ``< k`` are data fragments, the rest parity.

        Raises:
            UnrecoverableDataError: fewer than ``k`` fragments supplied.
        """
        data = self.decode_arrays(fragments)
        return [data[i].tobytes() for i in range(self.k)]

    def reconstruct_arrays(
        self,
        fragments: Mapping[int, Fragment],
        missing: Sequence[int],
    ) -> Dict[int, npt.NDArray[np.uint8]]:
        """Rebuild missing fragments as arrays, computing only needed rows.

        Data rows come straight out of the decoded stack; missing *parity*
        rows are produced by one fused matvec over just those generator
        rows instead of re-encoding the full parity set.
        """
        for index in missing:
            if not 0 <= index < self.n:
                raise ErasureError(f"fragment index {index} outside [0, {self.n})")
        data = self.decode_arrays(fragments)
        rebuilt: Dict[int, npt.NDArray[np.uint8]] = {}
        parity_rows = sorted({index for index in missing if index >= self.k})
        if parity_rows:
            rows = matvec_bytes(
                self._parity_matrix[[index - self.k for index in parity_rows]], data
            )
            for position, index in enumerate(parity_rows):
                rebuilt[index] = rows[position]
        for index in missing:
            if index < self.k:
                rebuilt[index] = data[index]
        return rebuilt

    def reconstruct(
        self,
        fragments: Mapping[int, Fragment],
        missing: Sequence[int],
    ) -> Dict[int, bytes]:
        """Rebuild specific missing fragments (data or parity) by index."""
        return {
            index: row.tobytes()
            for index, row in self.reconstruct_arrays(fragments, missing).items()
        }

    # ------------------------------------------------------------------
    # Parity update strategies (paper §II-B)
    # ------------------------------------------------------------------
    def plan_update(self, updated_fragments: int = 1) -> UpdatePlan:
        """Pick the parity-update strategy with the fewest fragment reads.

        Direct update re-reads the ``k - updated_fragments`` untouched data
        fragments. Delta update reads the ``updated_fragments`` old data
        fragments plus the ``m`` old parity fragments. The paper states Reo
        "chooses the encoding method that incurs the least disk reads".
        """
        if not 1 <= updated_fragments <= self.k:
            raise ErasureError("updated fragment count must be in [1, k]")
        direct_reads = self.k - updated_fragments
        delta_reads = updated_fragments + self.m
        if delta_reads < direct_reads:
            return UpdatePlan("delta", delta_reads)
        return UpdatePlan("direct", direct_reads)

    def delta_update(
        self,
        old_parity: Sequence[Fragment],
        fragment_index: int,
        old_data: Fragment,
        new_data: Fragment,
    ) -> List[bytes]:
        """Delta parity update for a single rewritten data fragment.

        ``P'_i = P_i + C[i, j] * (D'_j + D_j)`` for each parity row ``i``,
        computed for all rows at once: the coefficient column against the
        delta is one ``(m, 1) x (1, length)`` fused matvec.
        """
        if not 0 <= fragment_index < self.k:
            raise ErasureError(f"data fragment index {fragment_index} outside [0, {self.k})")
        if len(old_parity) != self.m:
            raise ErasureError(f"expected {self.m} parity fragments, got {len(old_parity)}")
        if self.m == 0:
            return []
        delta = np.bitwise_xor(_as_array(old_data), _as_array(new_data))
        coefficients = self._parity_matrix[:, fragment_index : fragment_index + 1]
        scaled = matvec_bytes(coefficients, delta[None, :])
        return [
            np.bitwise_xor(_as_array(old_parity[row]), scaled[row]).tobytes()
            for row in range(self.m)
        ]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_data(self, data: Sequence[Fragment]) -> List["npt.NDArray[np.uint8]"]:
        if len(data) != self.k:
            raise ErasureError(f"expected {self.k} data fragments, got {len(data)}")
        arrays = [_as_array(fragment) for fragment in data]
        lengths = {array.shape[0] for array in arrays}
        if len(lengths) != 1:
            raise ErasureError(f"fragments must be equal-size, got lengths {sorted(lengths)}")
        return arrays

    def __repr__(self) -> str:
        return f"RSCodec(k={self.k}, m={self.m})"
