"""Property tests for rendezvous placement (the ISSUE-7 acceptance bars).

Three properties, each load-bearing for the cluster layer:

- **Balance**: sequential OIDs (the allocator's pattern) spread evenly
  over every shard count the cluster supports.
- **Determinism**: the ranking is a pure function of ``(object, shards)``
  — independent of process, call order, or the order the shard ids are
  presented in — because routers and shard servers compute it separately
  and must agree.
- **Minimal movement**: a shard join or leave re-homes at most
  ``1/N + 5%`` of the population (the acceptance criterion); everything
  else keeps its primary. A modulo partition fails this wildly.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.placement import rank_shards, rendezvous_score
from repro.osd.types import PARTITION_BASE, ObjectId

pytestmark = pytest.mark.cluster

#: Enough objects that the balance/movement bounds are statistical
#: certainties, small enough that the whole module stays fast.
POPULATION = 4096

oids = st.integers(min_value=0, max_value=(1 << 48) - 1)
pids = st.integers(min_value=0, max_value=(1 << 40) - 1)
shard_counts = st.integers(min_value=1, max_value=9)


def _population(pid: int = PARTITION_BASE) -> list:
    return [ObjectId(pid, oid) for oid in range(POPULATION)]


@pytest.mark.parametrize("num_shards", range(1, 10))
def test_balance_across_shard_counts(num_shards):
    """Sequential OIDs spread evenly for every shard count 1-9."""
    shard_ids = list(range(num_shards))
    counts = dict.fromkeys(shard_ids, 0)
    for object_id in _population():
        counts[rank_shards(object_id, shard_ids)[0]] += 1
    expected = POPULATION / num_shards
    for shard_id, count in counts.items():
        assert 0.8 * expected <= count <= 1.2 * expected, (
            f"shard {shard_id} holds {count} of {POPULATION} "
            f"(expected ~{expected:.0f}) at N={num_shards}"
        )


@given(pid=pids, oid=oids, num_shards=shard_counts)
@settings(max_examples=200, deadline=None)
def test_ranking_is_deterministic_and_order_free(pid, oid, num_shards):
    """Same object + same shard set -> same total order, however presented."""
    object_id = ObjectId(pid, oid)
    shard_ids = list(range(num_shards))
    ranked = rank_shards(object_id, shard_ids)
    assert ranked == rank_shards(object_id, shard_ids)  # pure
    assert ranked == rank_shards(object_id, list(reversed(shard_ids)))  # order-free
    assert sorted(ranked) == shard_ids  # a permutation, nothing dropped
    # Scores themselves are stable pure functions (never salted hash()).
    for shard_id in shard_ids:
        assert rendezvous_score(object_id, shard_id) == rendezvous_score(
            object_id, shard_id
        )


@given(num_shards=st.integers(min_value=2, max_value=9), data=st.data())
@settings(max_examples=25, deadline=None)
def test_shard_leave_moves_at_most_its_share(num_shards, data):
    """Removing one shard re-homes <= 1/N + 5% of objects — exactly its own."""
    shard_ids = list(range(num_shards))
    victim = data.draw(st.sampled_from(shard_ids))
    survivors = [shard_id for shard_id in shard_ids if shard_id != victim]
    moved = 0
    for object_id in _population():
        before = rank_shards(object_id, shard_ids)[0]
        after = rank_shards(object_id, survivors)[0]
        if before != after:
            moved += 1
            # Only the victim's objects may move; everyone else stays put.
            assert before == victim
    assert moved / POPULATION <= 1 / num_shards + 0.05


@given(num_shards=st.integers(min_value=1, max_value=8))
@settings(max_examples=8, deadline=None)
def test_shard_join_moves_at_most_newcomers_share(num_shards):
    """Adding shard N re-homes <= 1/(N+1) + 5% — exactly what it gains."""
    shard_ids = list(range(num_shards))
    joined = shard_ids + [num_shards]
    moved = 0
    for object_id in _population():
        before = rank_shards(object_id, shard_ids)[0]
        after = rank_shards(object_id, joined)[0]
        if before != after:
            moved += 1
            # Movement only ever flows *to* the newcomer.
            assert after == num_shards
    assert moved / POPULATION <= 1 / (num_shards + 1) + 0.05
