"""Unit tests for the epoch-versioned cluster map.

The map is the routing truth every router and shard server must agree on,
so these tests pin its contracts: epoch/generation monotonicity, the wire
round-trip, fragment-aware ownership, and stripe declustering.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.map import (
    ClusterMap,
    ClusterMapError,
    ShardInfo,
    ShardState,
    fragment_object_id,
    is_fragment,
    parent_of_fragment,
)
from repro.cluster.placement import RANKING_MEMO_ENTRIES, rank_shards, ranking
from repro.osd.types import PARTITION_BASE, ObjectId

pytestmark = pytest.mark.cluster


def _map(n=3, epoch=1):
    return ClusterMap(
        epoch=epoch,
        shards=tuple(
            ShardInfo(shard_id=i, host="127.0.0.1", port=7000 + i) for i in range(n)
        ),
    )


OID = ObjectId(PARTITION_BASE, 0x1234)


class TestEvolution:
    def test_state_flip_bumps_epoch(self):
        before = _map()
        after = before.with_shard_state(1, ShardState.DRAINING)
        assert after.epoch == before.epoch + 1
        assert after.require(1).state is ShardState.DRAINING
        # Immutability: the old map is untouched.
        assert before.require(1).state is ShardState.ONLINE

    def test_generation_bumps_only_on_condemn(self):
        m = _map()
        drained = m.with_shard_state(2, ShardState.DRAINING)
        assert drained.require(2).generation == 0
        condemned = drained.with_shard_state(2, ShardState.CONDEMNED)
        assert condemned.require(2).generation == 1
        # Re-condemning an already condemned shard is not a new incident.
        again = condemned.with_shard_state(2, ShardState.CONDEMNED)
        assert again.require(2).generation == 1
        assert again.epoch == condemned.epoch + 1

    def test_membership_views_follow_state(self):
        m = _map().with_shard_state(0, ShardState.DRAINING)
        assert m.placement_ids == [1, 2]
        assert m.readable_ids == [0, 1, 2]
        m = m.with_shard_state(0, ShardState.CONDEMNED)
        assert m.placement_ids == [1, 2]
        assert m.readable_ids == [1, 2]

    def test_join_rejects_duplicates(self):
        m = _map(2)
        joined = m.with_shard(ShardInfo(shard_id=2, host="127.0.0.1", port=7002))
        assert joined.epoch == m.epoch + 1
        assert joined.placement_ids == [0, 1, 2]
        with pytest.raises(ClusterMapError):
            joined.with_shard(ShardInfo(shard_id=1, host="127.0.0.1", port=9999))

    def test_constructor_validation(self):
        with pytest.raises(ClusterMapError):
            ClusterMap(epoch=0, shards=())
        with pytest.raises(ClusterMapError):
            ClusterMap(
                epoch=1,
                shards=(
                    ShardInfo(shard_id=0, host="a", port=1),
                    ShardInfo(shard_id=0, host="b", port=2),
                ),
            )


class TestWireFormat:
    def test_json_round_trip(self):
        before = (
            _map(4, epoch=7)
            .with_shard_state(3, ShardState.DRAINING)
            .with_shard_state(3, ShardState.CONDEMNED)
        )
        after = ClusterMap.from_json(before.to_json())
        assert after == before
        # Stable bytes: sort_keys means re-encoding is deterministic.
        assert after.to_json() == before.to_json()

    def test_malformed_payloads_raise(self):
        with pytest.raises(ClusterMapError):
            ClusterMap.from_json(b"not json")
        with pytest.raises(ClusterMapError):
            ClusterMap.from_json(b"[1, 2]")
        with pytest.raises(ClusterMapError):
            ClusterMap.from_json(b'{"epoch": 1, "shards": [{"shard_id": 0}]}')


class TestPlacement:
    def test_owners_respect_width_and_eligibility(self):
        m = _map(4)
        owners = m.owners_for(OID, width=2)
        assert len(owners) == 2
        assert len(set(owners)) == 2
        assert m.owners_for(OID) == owners[:1]
        # Draining the primary re-homes it; the old mirror order shifts up.
        drained = m.with_shard_state(owners[0], ShardState.DRAINING)
        assert owners[0] not in drained.owners_for(OID, width=2)

    def test_no_eligible_shards_is_an_error(self):
        m = _map(1).with_shard_state(0, ShardState.CONDEMNED)
        with pytest.raises(ClusterMapError):
            m.owners_for(OID)

    def test_fragment_ids_round_trip(self):
        for index in (0, 1, 5, 255):
            fid = fragment_object_id(OID, index)
            assert is_fragment(fid)
            assert not is_fragment(OID)
            assert parent_of_fragment(fid) == (OID, index)
        with pytest.raises(ClusterMapError):
            fragment_object_id(OID, 256)
        with pytest.raises(ClusterMapError):
            parent_of_fragment(OID)

    def test_fragment_owner_follows_parent_ranking(self):
        m = _map(6)
        stripe = m.stripe_shards_for(OID, 6)
        assert sorted(stripe) == m.placement_ids  # distinct: declustered
        for index in range(6):
            assert m.owners_for(fragment_object_id(OID, index)) == [stripe[index]]

    def test_stripe_cycles_when_shards_are_scarce(self):
        m = _map(3)
        stripe = m.stripe_shards_for(OID, 6)
        assert len(stripe) == 6
        # One shard loss erases at most ceil(6/3) = 2 fragments.
        for shard_id in m.placement_ids:
            assert stripe.count(shard_id) == 2
        with pytest.raises(ClusterMapError):
            m.stripe_shards_for(OID, 0)


# ----------------------------------------------------------------------
# Placement is a memoized lookup: same answers as the uncached definition
# ----------------------------------------------------------------------
def _assert_matches_definition(m, object_id, width, fragments):
    """Every placement answer of ``m`` against ``rank_shards`` on the ONLINE ids."""
    eligible = sorted(
        s.shard_id for s in m.shards if s.state is ShardState.ONLINE
    )
    assert m.placement_ids == eligible
    if not eligible:
        for ask in (
            lambda: m.owners_for(object_id, width),
            lambda: m.stripe_shards_for(object_id, fragments),
            lambda: m.owners_for(fragment_object_id(object_id, 0)),
        ):
            with pytest.raises(ClusterMapError):
                ask()
        return
    ranked = rank_shards(object_id, eligible)
    owners = m.owners_for(object_id, width)
    assert owners == ranked[: max(1, min(width, len(ranked)))]
    stripe = m.stripe_shards_for(object_id, fragments)
    assert stripe == [ranked[i % len(ranked)] for i in range(fragments)]
    for index in range(fragments):
        assert m.owners_for(fragment_object_id(object_id, index)) == [stripe[index]]
    # Answers are fresh lists: a caller that mutates one changes nothing.
    owners.append(-1)
    stripe.clear()
    assert m.owners_for(object_id, width) == ranked[: max(1, min(width, len(ranked)))]
    assert m.stripe_shards_for(object_id, fragments)[0] == ranked[0]


@settings(max_examples=60, deadline=None)
@given(
    states=st.lists(st.sampled_from(list(ShardState)), min_size=1, max_size=7),
    flips=st.lists(
        st.tuples(st.integers(0, 6), st.sampled_from(list(ShardState))), max_size=4
    ),
    oid=st.integers(min_value=0, max_value=(1 << 48) - 1),
    width=st.integers(min_value=1, max_value=3),
    fragments=st.integers(min_value=1, max_value=8),
)
def test_memoized_placement_equals_the_uncached_definition(
    states, flips, oid, width, fragments
):
    object_id = ObjectId(PARTITION_BASE, oid)
    m = ClusterMap(
        epoch=1,
        shards=tuple(
            ShardInfo(shard_id=2 * i, host="127.0.0.1", port=7000 + i, state=state)
            for i, state in enumerate(states)
        ),
    )
    _assert_matches_definition(m, object_id, width, fragments)
    for position, state in flips:
        m = m.with_shard_state(m.shards[position % len(m.shards)].shard_id, state)
        _assert_matches_definition(m, object_id, width, fragments)
    m = m.with_shard(ShardInfo(shard_id=1, host="127.0.0.1", port=7999))
    _assert_matches_definition(m, object_id, width, fragments)
    m = ClusterMap.from_json(m.to_json())
    _assert_matches_definition(m, object_id, width, fragments)


def test_ranking_memo_is_bounded():
    assert ranking.cache_info().maxsize == RANKING_MEMO_ENTRIES
    m = _map(1)
    try:
        for index in range(RANKING_MEMO_ENTRIES + 64):
            m.owners_for(ObjectId(PARTITION_BASE, index))
        assert ranking.cache_info().currsize == RANKING_MEMO_ENTRIES
    finally:
        ranking.cache_clear()  # do not carry a full memo through the session


def test_new_epoch_with_the_same_membership_keeps_its_rankings(scores):
    first = _map(4)
    owners = first.owners_for(OID, width=2)
    assert sorted(scores) == [0, 1, 2, 3]  # one ranking: one score per shard
    again = ClusterMap.from_json(_map(4, epoch=9).to_json())
    assert again.owners_for(OID, width=2) == owners
    assert again.owners_for(fragment_object_id(OID, 3)) == [
        first.stripe_shards_for(OID, 4)[3]
    ]
    assert len(scores) == 4  # same eligible set: every answer was a lookup


def test_equality_hash_and_wire_format_ignore_the_derived_state():
    touched, untouched = _map(4), _map(4)
    touched.owners_for(OID, width=2)
    assert touched.placement_ids == touched.readable_ids == [0, 1, 2, 3]
    assert touched == untouched
    assert hash(touched) == hash(untouched)
    assert repr(touched) == repr(untouched)
    assert touched.to_json() == untouched.to_json()
    assert set(touched.to_dict()) == {"epoch", "shards"}
    assert touched.shard(3) is touched.shards[3]
    assert touched.shard(4) is None
