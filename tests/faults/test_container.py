"""The one seeded plan container, under both event vocabularies."""

import random

import pytest

from repro.errors import FaultPlanError
from repro.faults.injector import FaultInjector
from repro.faults.netplan import LinkNoise, NetFaultPlan, NetPartition, ShardChaos
from repro.faults.plan import FailStop, FaultPlan, LatentErrors, SeededPlan, stream

VOCABULARIES = [
    pytest.param(
        FaultPlan,
        LatentErrors(uber_rate=0.01),
        FailStop(at_time=9.0, device=0),
        NetPartition(shards=(0,), from_op=0, until_op=1),
        "FaultPlan(seed=3):\n"
        "  [0] LatentErrors(uber_rate=0.01, seed=0, devices=None, from_time=0.0, "
        "max_events=None)\n"
        "  [1] FailStop(at_time=9.0, device=0)",
        id="device",
    ),
    pytest.param(
        NetFaultPlan,
        LinkNoise(shard=0, drop_rate=0.5),
        NetPartition(shards=(1,), from_op=0, until_op=3),
        FailStop(at_time=1.0, device=0),
        "NetFaultPlan(seed=3):\n"
        "  [0] LinkNoise(shard=0, drop_rate=0.5, from_op=0, until_op=None)\n"
        "  [1] NetPartition(shards=(1,), from_op=0, until_op=3)",
        id="net",
    ),
]


@pytest.mark.parametrize("plan_type, first, second, foreign, described", VOCABULARIES)
def test_container_behaves_the_same_for_both_vocabularies(
    plan_type, first, second, foreign, described
):
    assert issubclass(plan_type, SeededPlan)
    plan = plan_type(events=[first], seed=3)
    assert plan.events == (first,)  # any iterable is frozen into a tuple
    assert plan_type().describe() == f"{plan_type.__name__}(empty)"

    # `extended` stays in the vocabulary and keeps the seed and the indices
    # (hence the stream keys) of the events already there.
    grown = plan.extended(second)
    assert type(grown) is plan_type and grown.seed == 3
    assert len(plan) == 1 and tuple(grown) == (first, second)
    assert grown.of_type(type(first)) == [(0, first)]
    assert grown.of_type(type(second)) == [(1, second)]
    assert grown.extended(first).of_type(type(first)) == [(0, first), (2, first)]
    assert grown.describe() == described

    # A vocabulary admits its own events only: not a stranger, and not the
    # other vocabulary's.
    for intruder in ("not-an-event", foreign):
        with pytest.raises(FaultPlanError):
            plan_type(events=(intruder,))


def test_stream_keys_are_the_recorded_strings():
    """Seeded artefacts depend on these exact keys; they must never move."""
    assert stream(7, 2, 4, 9).random() == random.Random("7:2:4:9").random()

    injector = FaultInjector(FaultPlan(seed=7))
    assert (
        injector._stream(2, 4).random() == random.Random("7:2:4:0").random()
    )  # "{seed}:{index}:{device}:{extra}", extra defaulting to 0
    assert injector._stream(3, 1, 9).random() == random.Random("7:3:1:9").random()

    chaos = ShardChaos(NetFaultPlan(seed=7))
    assert chaos._stream(2, 4).random() == random.Random("7:2:4:net").random()
    # One stream per (event, unit): a second ask continues it.
    assert chaos._stream(2, 4) is chaos._stream(2, 4)
