"""Tests for the shard-grain network chaos vocabulary.

The plan container itself is tested under both vocabularies in
``test_container.py``.
"""

import pytest

from repro.errors import FaultPlanError
from repro.faults.netplan import (
    LinkFailSlow,
    LinkFlap,
    LinkNoise,
    NetFaultPlan,
    NetPartition,
    ShardChaos,
)


def _drive(chaos, shard_id, ops):
    """Run ``ops`` commands through one shard's hook, return verdicts."""
    hook = chaos.hook_for(shard_id)
    return [hook(None, seq) for seq in range(ops)]


class TestValidation:
    def test_partition_needs_shards_and_window(self):
        with pytest.raises(FaultPlanError):
            NetFaultPlan(events=(NetPartition(shards=(), from_op=0, until_op=5),))
        with pytest.raises(FaultPlanError):
            NetFaultPlan(events=(NetPartition(shards=(1,), from_op=5, until_op=5),))

    def test_fail_slow_rejects_bad_ramp(self):
        with pytest.raises(FaultPlanError):
            NetFaultPlan(events=(LinkFailSlow(shard=0, delay=0.0),))
        with pytest.raises(FaultPlanError):
            NetFaultPlan(events=(LinkFailSlow(shard=0, delay=0.01, ramp_ops=0),))
        with pytest.raises(FaultPlanError):
            NetFaultPlan(
                events=(LinkFailSlow(shard=0, delay=0.01, from_op=4, until_op=4),)
            )

    def test_flap_window_shape(self):
        with pytest.raises(FaultPlanError):
            NetFaultPlan(events=(LinkFlap(shard=0, period_ops=4, down_ops=0),))
        with pytest.raises(FaultPlanError):
            NetFaultPlan(events=(LinkFlap(shard=0, period_ops=2, down_ops=3),))

    def test_noise_rate_is_probability(self):
        with pytest.raises(FaultPlanError):
            NetFaultPlan(events=(LinkNoise(shard=0, drop_rate=1.5),))


class TestPartition:
    def test_window_drops_only_listed_shards(self):
        plan = NetFaultPlan(events=(NetPartition(shards=(1,), from_op=2, until_op=4),))
        chaos = ShardChaos(plan)
        assert _drive(chaos, 1, 6) == [None, None, "drop", "drop", None, None]
        chaos2 = ShardChaos(plan)
        assert _drive(chaos2, 0, 6) == [None] * 6

    def test_counters_track_drops(self):
        plan = NetFaultPlan(events=(NetPartition(shards=(0,), from_op=0, until_op=3),))
        chaos = ShardChaos(plan)
        _drive(chaos, 0, 5)
        assert chaos.drops[0] == 3
        assert chaos.ops[0] == 5


class TestFlap:
    def test_periodic_drop_restore(self):
        plan = NetFaultPlan(
            events=(LinkFlap(shard=0, period_ops=4, down_ops=1, from_op=2),)
        )
        chaos = ShardChaos(plan)
        verdicts = _drive(chaos, 0, 12)
        # Down on ops 2, 6, 10; up everywhere else.
        assert [i for i, v in enumerate(verdicts) if v == "drop"] == [2, 6, 10]

    def test_until_op_ends_flapping(self):
        plan = NetFaultPlan(
            events=(LinkFlap(shard=0, period_ops=2, down_ops=1, from_op=0, until_op=4),)
        )
        chaos = ShardChaos(plan)
        verdicts = _drive(chaos, 0, 8)
        assert [i for i, v in enumerate(verdicts) if v == "drop"] == [0, 2]


class TestNoise:
    def test_noise_is_seed_deterministic(self):
        plan = NetFaultPlan(events=(LinkNoise(shard=0, drop_rate=0.4),), seed=11)
        first = _drive(ShardChaos(plan), 0, 40)
        second = _drive(ShardChaos(plan), 0, 40)
        assert first == second
        assert "drop" in first and None in first

    def test_different_seed_changes_schedule(self):
        events = (LinkNoise(shard=0, drop_rate=0.4),)
        a = _drive(ShardChaos(NetFaultPlan(events=events, seed=1)), 0, 60)
        b = _drive(ShardChaos(NetFaultPlan(events=events, seed=2)), 0, 60)
        assert a != b


class TestFailSlow:
    def test_ramp_reaches_full_delay(self):
        plan = NetFaultPlan(
            events=(LinkFailSlow(shard=0, delay=0.004, from_op=0, ramp_ops=4),)
        )
        chaos = ShardChaos(plan)
        assert chaos._delay(0, 0) == pytest.approx(0.001)
        assert chaos._delay(0, 1) == pytest.approx(0.002)
        assert chaos._delay(0, 3) == pytest.approx(0.004)
        assert chaos._delay(0, 50) == pytest.approx(0.004)

    def test_delay_counters_accumulate(self):
        plan = NetFaultPlan(events=(LinkFailSlow(shard=0, delay=0.001, ramp_ops=1),))
        chaos = ShardChaos(plan)
        # The verdict is the delay itself: the server holds the reply.
        assert _drive(chaos, 0, 3) == [0.001] * 3
        assert chaos.delays[0] == 3
        assert chaos.delayed_seconds[0] == pytest.approx(0.003)


class TestSnapshot:
    def test_counters_per_shard(self):
        plan = NetFaultPlan(
            events=(
                NetPartition(shards=(0,), from_op=0, until_op=2),
                LinkFailSlow(shard=1, delay=0.001, ramp_ops=1),
            )
        )
        chaos = ShardChaos(plan)
        _drive(chaos, 1, 2)
        _drive(chaos, 0, 3)
        assert chaos.ops == {0: 3, 1: 2}
        assert chaos.drops == {0: 2}
