"""Tests for the fused erasure kernel and the cached decoder matrices.

Three concerns from the erasure-kernel rework:

- the fused ``matvec_bytes``/``matvec_fragments`` must be bit-identical to
  the preserved seed kernel (:mod:`repro.erasure.reference`) on arbitrary
  inputs, including the ``m = 0`` and single-fragment edge cases;
- the codec must stay correct across the stripe geometries the evaluation
  sweeps, for every erasure pattern up to ``m`` failures;
- decoder matrices must be memoized per survivor set (one inversion per
  failure pattern, hits afterwards) and fragments must enter the codec as
  zero-copy read-only views.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.erasure import reference as ref
from repro.erasure.galois import GF256
from repro.erasure.rs import RSCodec, _as_array
from repro.errors import ErasureError

FIELD = GF256.default


def make_fragments(k, length, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 256, length, dtype=np.uint8).tobytes() for _ in range(k)]


# ----------------------------------------------------------------------
# Fused kernel == seed kernel (property tests)
# ----------------------------------------------------------------------
@st.composite
def matvec_case(draw):
    # rows=0 covers the m=0 parity matrix; cols=1 the single-fragment stripe.
    rows = draw(st.integers(min_value=0, max_value=5))
    cols = draw(st.integers(min_value=1, max_value=5))
    length = draw(st.integers(min_value=1, max_value=257))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    matrix = rng.integers(0, 256, (rows, cols), dtype=np.uint8)
    # Bias some coefficients to 0 and 1 so the sparsity fast paths are hit.
    matrix[rng.random((rows, cols)) < 0.25] = 0
    matrix[rng.random((rows, cols)) < 0.25] = 1
    fragments = rng.integers(0, 256, (cols, length), dtype=np.uint8)
    return matrix, fragments


class TestFusedMatvecMatchesSeed:
    @settings(max_examples=60, deadline=None)
    @given(case=matvec_case())
    def test_matvec_bytes_bit_identical(self, case):
        matrix, fragments = case
        fused = FIELD.matvec_bytes(matrix, fragments)
        seed = ref.matvec_bytes_reference(FIELD, matrix, fragments)
        assert fused.dtype == np.uint8
        assert np.array_equal(fused, seed)

    @settings(max_examples=30, deadline=None)
    @given(case=matvec_case())
    def test_matvec_fragments_accepts_byte_strings(self, case):
        matrix, fragments = case
        as_bytes = [fragments[j].tobytes() for j in range(fragments.shape[0])]
        fused = FIELD.matvec_fragments(matrix, as_bytes)
        assert np.array_equal(fused, ref.matvec_bytes_reference(FIELD, matrix, fragments))

    @settings(max_examples=40, deadline=None)
    @given(
        scalar=st.integers(min_value=0, max_value=255),
        seed=st.integers(min_value=0, max_value=2**31),
        length=st.integers(min_value=1, max_value=300),
    )
    def test_mul_and_addmul_bit_identical(self, scalar, seed, length):
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 256, length, dtype=np.uint8)
        assert np.array_equal(
            FIELD.mul_bytes(scalar, data), ref.mul_bytes_reference(FIELD, scalar, data)
        )
        fused_acc = rng.integers(0, 256, length, dtype=np.uint8)
        seed_acc = fused_acc.copy()
        FIELD.addmul_bytes(fused_acc, scalar, data)
        ref.addmul_bytes_reference(FIELD, seed_acc, scalar, data)
        assert np.array_equal(fused_acc, seed_acc)

    def test_zero_parity_matrix(self):
        matrix = np.zeros((0, 3), dtype=np.uint8)
        fragments = np.ones((3, 16), dtype=np.uint8)
        assert FIELD.matvec_bytes(matrix, fragments).shape == (0, 16)

    def test_single_fragment(self):
        matrix = np.array([[7], [1], [0]], dtype=np.uint8)
        fragments = np.arange(16, dtype=np.uint8)[None, :]
        fused = FIELD.matvec_bytes(matrix, fragments)
        assert np.array_equal(fused, ref.matvec_bytes_reference(FIELD, matrix, fragments))

    def test_all_zero_row_yields_zeros(self):
        matrix = np.zeros((2, 3), dtype=np.uint8)
        fragments = np.full((3, 8), 0xAB, dtype=np.uint8)
        assert not FIELD.matvec_bytes(matrix, fragments).any()

    def test_rejects_mismatched_fragment_count(self):
        with pytest.raises(ErasureError):
            FIELD.matvec_fragments(np.zeros((1, 2), dtype=np.uint8), [b"ab"])

    def test_rejects_unequal_fragment_lengths(self):
        with pytest.raises(ErasureError):
            FIELD.matvec_fragments(np.zeros((1, 2), dtype=np.uint8), [b"ab", b"abc"])

    def test_invert_matches_seed_inversion(self):
        codec = RSCodec(4, 2)
        for chosen in [(0, 1, 2, 4), (1, 2, 4, 5), (2, 3, 4, 5)]:
            submatrix = codec.generator_matrix[list(chosen)]
            fast = codec._decoder_for(chosen)
            assert np.array_equal(fast, ref.invert_reference(FIELD, submatrix))


# ----------------------------------------------------------------------
# Codec correctness across evaluation geometries
# ----------------------------------------------------------------------
@pytest.mark.parametrize("k,m", [(4, 2), (6, 2), (8, 3)])
class TestGeometrySweep:
    def test_all_erasure_patterns_decode(self, k, m):
        codec = RSCodec(k, m)
        data = make_fragments(k, 512, seed=k * 31 + m)
        stripe = dict(enumerate(codec.encode_stripe(data)))
        for failures in range(1, m + 1):
            for erased in itertools.combinations(range(k + m), failures):
                survivors = {i: frag for i, frag in stripe.items() if i not in erased}
                assert codec.decode(survivors) == data, (erased, k, m)

    def test_reconstruct_every_single_erasure(self, k, m):
        codec = RSCodec(k, m)
        data = make_fragments(k, 256, seed=k * 17 + m)
        stripe = dict(enumerate(codec.encode_stripe(data)))
        for erased in range(k + m):
            survivors = {i: frag for i, frag in stripe.items() if i != erased}
            rebuilt = codec.reconstruct(survivors, [erased])
            assert rebuilt[erased] == stripe[erased]

    def test_encode_matches_seed_kernel(self, k, m):
        codec = RSCodec(k, m)
        data = make_fragments(k, 384, seed=k + m)
        assert codec.encode(data) == ref.encode_reference(codec, data)


# ----------------------------------------------------------------------
# Decoder-matrix memoization
# ----------------------------------------------------------------------
class TestDecoderCache:
    def test_repeated_survivor_set_hits_cache(self):
        codec = RSCodec(3, 2)
        data = make_fragments(3, 128)
        stripe = dict(enumerate(codec.encode_stripe(data)))
        del stripe[0]
        for _ in range(5):
            assert codec.decode(stripe) == data
        info = codec.decoder_cache_info()
        assert info.misses == 1
        assert info.hits == 4
        assert info.size == 1

    def test_distinct_survivor_sets_miss_separately(self):
        codec = RSCodec(3, 2)
        data = make_fragments(3, 128)
        stripe = dict(enumerate(codec.encode_stripe(data)))
        for erased in (0, 1, 2):
            degraded = {i: frag for i, frag in stripe.items() if i != erased}
            codec.decode(degraded)
            codec.decode(degraded)
        info = codec.decoder_cache_info()
        assert info.misses == 3
        assert info.hits == 3
        assert info.size == 3

    def test_all_data_present_fast_path_skips_cache(self):
        codec = RSCodec(3, 2)
        data = make_fragments(3, 64)
        stripe = dict(enumerate(codec.encode_stripe(data)))
        del stripe[4]  # only parity missing: no decode needed
        assert codec.decode(stripe) == data
        info = codec.decoder_cache_info()
        assert info.hits == 0 and info.misses == 0 and info.size == 0

    def test_clear_decoder_cache(self):
        codec = RSCodec(3, 2)
        data = make_fragments(3, 64)
        stripe = dict(enumerate(codec.encode_stripe(data)))
        del stripe[1]
        codec.decode(stripe)
        codec.clear_decoder_cache()
        assert codec.decoder_cache_info().size == 0
        codec.decode(stripe)
        assert codec.decoder_cache_info().misses == 2

    def test_cache_evicts_least_recent(self):
        from repro.erasure import rs as rs_module

        codec = RSCodec(2, 6)  # many survivor combinations available
        data = make_fragments(2, 32)
        stripe = dict(enumerate(codec.encode_stripe(data)))
        patterns = list(itertools.combinations(range(8), 2))
        limit = rs_module._DECODER_CACHE_SIZE
        for chosen in patterns[: limit + 4]:
            survivors = {i: stripe[i] for i in chosen}
            codec.decode(survivors)
        assert codec.decoder_cache_info().size <= limit

    def test_cached_decoder_is_read_only(self):
        codec = RSCodec(3, 2)
        data = make_fragments(3, 64)
        stripe = dict(enumerate(codec.encode_stripe(data)))
        del stripe[0]
        codec.decode(stripe)
        (decoder,) = codec._decoders.values()
        with pytest.raises(ValueError):
            decoder[0, 0] = 1


# ----------------------------------------------------------------------
# Zero-copy fragment views
# ----------------------------------------------------------------------
class TestAsArrayZeroCopy:
    def test_bytes_view_shares_buffer_and_is_read_only(self):
        payload = bytes(range(64))
        view = _as_array(payload)
        assert not view.flags.writeable
        assert not view.flags.owndata  # a view over the bytes object, not a copy
        assert view.tobytes() == payload

    def test_bytearray_view_is_made_read_only(self):
        payload = bytearray(range(32))
        view = _as_array(payload)
        assert not view.flags.writeable
        payload[0] = 0xFF  # caller still owns the buffer...
        assert view[0] == 0xFF  # ...and the view reflects it: zero-copy

    def test_ndarray_passthrough(self):
        array = np.arange(16, dtype=np.uint8)
        assert _as_array(array) is array

    def test_non_uint8_array_rejected(self):
        with pytest.raises(ErasureError):
            _as_array(np.arange(4, dtype=np.int32))


# ----------------------------------------------------------------------
# Normalized ("good Cauchy") parity block
# ----------------------------------------------------------------------
GEOMETRIES = [(k, m) for k in range(1, 11) for m in range(1, 5)]


@pytest.mark.parametrize("k,m", GEOMETRIES)
def test_parity_block_is_xor_first_and_mds(k, m):
    codec = RSCodec(k, m)
    parity = codec.parity_matrix
    assert (parity[0] == 1).all() and (parity[:, 0] == 1).all()
    subsets = itertools.combinations(range(k + m), k)
    if math.comb(k + m, k) > 5000:
        rng = np.random.default_rng(k * 100 + m)
        subsets = (sorted(rng.choice(k + m, size=k, replace=False)) for _ in range(500))
    for chosen in subsets:
        codec._generator.select_rows(chosen).invert()  # raises if singular


@settings(max_examples=80, deadline=None)
@given(
    geometry=st.sampled_from(GEOMETRIES),
    length=st.integers(min_value=1, max_value=200),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_round_trips_match_the_seed_kernel(geometry, length, seed):
    k, m = geometry
    codec = RSCodec(k, m)
    rng = np.random.default_rng(seed)
    data = make_fragments(k, length, seed=seed)
    stripe = dict(enumerate(codec.encode_stripe(data)))
    assert [stripe[k + row] for row in range(m)] == ref.encode_reference(codec, data)
    erased = rng.choice(k + m, size=int(rng.integers(0, m + 1)), replace=False)
    survivors = {i: frag for i, frag in stripe.items() if i not in erased}
    assert codec.decode(survivors) == ref.decode_reference(codec, survivors) == data


def test_single_data_erasure_decodes_through_p_by_xor():
    codec = RSCodec(3, 2)
    data = make_fragments(3, 64, seed=9)
    stripe = dict(enumerate(codec.encode_stripe(data)))
    assert codec.decode({1: stripe[1], 2: stripe[2], 3: stripe[3]}) == data
    assert (codec._decoder_for((1, 2, 3))[0] == 1).all()
