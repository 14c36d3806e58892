"""Tests for redundancy schemes and stripe planning."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import StripeLayoutError
from repro.flash.stripe import (
    ChunkKind,
    ParityScheme,
    ReplicationScheme,
    split_payload,
)


class TestParityScheme:
    def test_name(self):
        assert ParityScheme(2).name == "2-parity"

    def test_negative_parity_rejected(self):
        with pytest.raises(StripeLayoutError):
            ParityScheme(-1)

    def test_data_chunks(self):
        assert ParityScheme(2).data_chunks_per_stripe(5) == 3
        assert ParityScheme(0).data_chunks_per_stripe(5) == 5

    def test_tolerable_failures(self):
        assert ParityScheme(2).tolerable_failures(5) == 2
        assert ParityScheme(0).tolerable_failures(5) == 0

    def test_storage_multiplier(self):
        assert ParityScheme(1).storage_multiplier(5) == pytest.approx(5 / 4)
        assert ParityScheme(0).storage_multiplier(5) == 1.0

    def test_parity_must_fit_width(self):
        with pytest.raises(StripeLayoutError):
            ParityScheme(5).validate(5)
        ParityScheme(4).validate(5)  # k = 1 is allowed

    def test_plan_roles(self):
        plan = ParityScheme(2).plan([0, 1, 2, 3, 4], rotation=0)
        kinds = [slot.kind for slot in plan]
        assert kinds == [
            ChunkKind.PARITY,
            ChunkKind.PARITY,
            ChunkKind.DATA,
            ChunkKind.DATA,
            ChunkKind.DATA,
        ]

    def test_plan_fragment_indices_systematic(self):
        plan = ParityScheme(2).plan([0, 1, 2, 3, 4], rotation=0)
        # Data fragments are 0..k-1, parity fragments k..n-1.
        data = sorted(s.fragment_index for s in plan if s.kind is ChunkKind.DATA)
        parity = sorted(s.fragment_index for s in plan if s.kind is ChunkKind.PARITY)
        assert data == [0, 1, 2]
        assert parity == [3, 4]

    def test_rotation_moves_parity(self):
        scheme = ParityScheme(1)
        positions = set()
        for rotation in range(5):
            plan = scheme.plan([0, 1, 2, 3, 4], rotation)
            (parity_slot,) = [s for s in plan if s.kind is ChunkKind.PARITY]
            positions.add(parity_slot.device_id)
        assert positions == {0, 1, 2, 3, 4}

    def test_plan_on_shrunken_array(self):
        # After failures, stripes span only the online devices.
        plan = ParityScheme(1).plan([0, 2, 4], rotation=1)
        assert {slot.device_id for slot in plan} == {0, 2, 4}
        assert sum(1 for s in plan if s.kind is ChunkKind.PARITY) == 1

    @given(
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=20),
    )
    def test_plan_is_permutation_of_fragments(self, parity, rotation):
        width = 5
        plan = ParityScheme(parity).plan(list(range(width)), rotation)
        assert sorted(slot.fragment_index for slot in plan) == list(range(width))
        assert len({slot.device_id for slot in plan}) == width


class TestReplicationScheme:
    def test_full_replication_name(self):
        assert ReplicationScheme().name == "full-replication"

    def test_tolerable_failures(self):
        assert ReplicationScheme().tolerable_failures(5) == 4

    def test_storage_multiplier(self):
        assert ReplicationScheme().storage_multiplier(5) == 5.0

    def test_plan_full(self):
        plan = ReplicationScheme().plan([0, 1, 2, 3, 4], rotation=0)
        assert len(plan) == 5
        assert plan[0].kind is ChunkKind.DATA
        assert all(slot.kind is ChunkKind.REPLICA for slot in plan[1:])
        assert {slot.device_id for slot in plan} == {0, 1, 2, 3, 4}

    def test_plan_rotation_moves_primary(self):
        primaries = {
            ReplicationScheme().plan([0, 1, 2], rotation=r)[0].device_id for r in range(3)
        }
        assert primaries == {0, 1, 2}


class TestSplitPayload:
    def test_empty_payload(self):
        assert split_payload(0, 64, 3) == []

    def test_exact_multiple(self):
        assert split_payload(192, 64, 3) == [(192, 64)]

    def test_multiple_stripes(self):
        assert split_payload(400, 64, 3) == [(192, 64), (192, 64), (16, 6)]

    def test_tail_chunk_padding_below_k(self):
        # 16 bytes over 3 chunks -> 6-byte chunks, 2 bytes padding total.
        (_, chunk_length) = split_payload(16, 64, 3)[-1]
        assert chunk_length * 3 - 16 < 3

    def test_single_byte(self):
        assert split_payload(1, 64, 5) == [(1, 1)]

    def test_invalid_args(self):
        with pytest.raises(StripeLayoutError):
            split_payload(10, 0, 3)
        with pytest.raises(StripeLayoutError):
            split_payload(10, 64, 0)

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=256),
        st.integers(min_value=1, max_value=8),
    )
    def test_plan_covers_payload_exactly(self, size, chunk_size, k):
        plan = split_payload(size, chunk_size, k)
        assert sum(stripe_payload for stripe_payload, _ in plan) == size
        for stripe_payload, chunk_length in plan:
            assert chunk_length >= 1
            assert stripe_payload <= chunk_length * k
            # padding is always less than one chunk
            assert chunk_length * k - stripe_payload < chunk_length + k
