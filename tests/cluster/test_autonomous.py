"""Autonomous self-healing: detector verdicts drive condemn/re-home."""

import asyncio
import dataclasses
import random

import pytest

from repro.cluster.health import SHARD_HEALTH_POLICY, ShardHealthMonitor, ShardProbe
from repro.cluster.map import ShardState
from repro.cluster.service import ClusterService
from repro.cluster.supervisor import ClusterSupervisor
from repro.core.policy import PROTECTED_CLASSES
from repro.net.retry import NO_RETRY
from repro.osd.types import FIRST_USER_OID, PARTITION_BASE, ObjectId

pytestmark = pytest.mark.cluster


def run(coro):
    return asyncio.run(coro)


def oid(index):
    return ObjectId(PARTITION_BASE, FIRST_USER_OID + 0x4000 + index)


def payload_for(tag, index, size=1024):
    return random.Random(f"auto-test/{tag}/{index}").randbytes(size)


async def populate(router, count=24):
    expected = {}
    for index in range(count):
        class_id = (0, 1, 2, 3)[index % 4]
        body = payload_for("populate", index)
        assert (await router.write(oid(index), body, class_id)).ok
        expected[oid(index)] = (body, class_id)
    return expected


async def wait_for(predicate, timeout=20.0, interval=0.01):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while loop.time() < deadline:
        if predicate():
            return True
        await asyncio.sleep(interval)
    return False


class TestAutonomousWiring:
    def test_failed_verdict_triggers_condemn(self):
        """Synthetic verdict → queue → autonomous condemn → re-home."""

        async def scenario():
            async with ClusterService(3) as service:
                monitor = ShardHealthMonitor()
                async with service.router(
                    retry=NO_RETRY, health_monitor=monitor
                ) as router:
                    await router.create_partition(PARTITION_BASE)
                    expected = await populate(router)
                    supervisor = ClusterSupervisor(service, router)
                    supervisor.attach_monitor(monitor)
                    await supervisor.start_autonomous()
                    victim = 1
                    # Drive the detector by hand: warm-up, then sustained
                    # errors until the FAILED verdict fires.
                    for i in range(6):
                        monitor.observe(victim, 0.001, ok=True, now=float(i))
                    for i in range(60):
                        monitor.observe(victim, None, ok=False, now=10.0 + i)
                    assert monitor.state_of(victim) == "failed"
                    assert await wait_for(lambda: supervisor.auto_events)
                    await supervisor.stop_autonomous()

                    transition, report = supervisor.auto_events[0]
                    assert transition.shard_id == victim
                    assert report.shard_id == victim
                    cluster_map = service.cluster_map
                    assert (
                        cluster_map.require(victim).state is ShardState.CONDEMNED
                    )
                    assert victim not in service.shards
                    # Detection was booked on the logical clock, before
                    # the condemnation step.
                    incident = supervisor.ledger.incidents[0]
                    assert incident.suspected_at is not None
                    assert incident.suspected_at < incident.failed_at
                    assert incident.reason.startswith("auto:")
                    # Protected classes survive the autonomous cycle.
                    for object_id, (body, class_id) in expected.items():
                        if class_id not in PROTECTED_CLASSES:
                            continue
                        got, response = await router.read(object_id)
                        assert response.ok and got == body

        run(scenario())

    def test_verdict_for_already_condemned_shard_is_dropped(self):
        async def scenario():
            async with ClusterService(3) as service:
                monitor = ShardHealthMonitor()
                async with service.router(retry=NO_RETRY) as router:
                    await router.create_partition(PARTITION_BASE)
                    supervisor = ClusterSupervisor(service, router)
                    supervisor.attach_monitor(monitor)
                    await supervisor.condemn(2, evacuate=True)
                    from repro.cluster.health import ShardTransition

                    report = await supervisor.handle_failure(
                        ShardTransition(2, "suspect", "failed", 0.0, "late echo")
                    )
                    assert report is None
                    assert supervisor.auto_events == []

        run(scenario())


class TestEndToEndFailSlow:
    def test_fail_slow_shard_detected_and_condemned(self):
        """The full loop with real sockets: injected fail-slow latency is
        noticed by probes + passive traffic, the shard is FAILED, and the
        autonomous supervisor drains it — no campaign involvement."""

        async def scenario():
            async with ClusterService(3) as service:
                # Hot detector so the test converges in a couple seconds.
                monitor = ShardHealthMonitor(
                    dataclasses.replace(
                        SHARD_HEALTH_POLICY,
                        alpha=0.3,
                        min_ops=4,
                        confirm_ops=6,
                        suspect_slowdown=4.0,
                        fail_slowdown=40.0,
                    )
                )
                async with service.router(
                    retry=NO_RETRY, health_monitor=monitor, timeout=2.0
                ) as router:
                    await router.create_partition(PARTITION_BASE)
                    expected = await populate(router, count=16)
                    supervisor = ClusterSupervisor(service, router)
                    supervisor.attach_monitor(monitor)
                    await supervisor.start_autonomous()

                    victim = 0

                    def crawl(command, seq):
                        return 0.05

                    service.shards[victim].fault_hook = crawl
                    probe = ShardProbe(router, monitor, interval=0.01)
                    await probe.start()
                    condemned = await wait_for(
                        lambda: supervisor.auto_events, timeout=30.0
                    )
                    await probe.aclose()
                    await supervisor.stop_autonomous()
                    assert condemned
                    transition, report = supervisor.auto_events[0]
                    assert transition.shard_id == victim
                    assert service.cluster_map.require(victim).state is (
                        ShardState.CONDEMNED
                    )
                    for object_id, (body, class_id) in expected.items():
                        if class_id not in PROTECTED_CLASSES:
                            continue
                        got, response = await router.read(object_id)
                        assert response.ok and got == body

        run(scenario())
