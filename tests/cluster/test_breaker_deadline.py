"""Degraded-mode client hardening: breakers, deadline budgets, hedging."""

import asyncio

import pytest

from repro.cluster import breaker as breaker_module
from repro.cluster.breaker import COOLDOWN_S, THRESHOLD, CircuitBreaker
from repro.cluster.health import ShardHealthMonitor
from repro.cluster.router import RouterClient
from repro.cluster.service import ClusterService
from repro.net.client import OsdServiceError
from repro.net.retry import NO_RETRY, RetryPolicy
from repro.osd.types import FIRST_USER_OID, PARTITION_BASE, ObjectId

pytestmark = pytest.mark.cluster


def run(coro):
    return asyncio.run(coro)


def oid(index):
    return ObjectId(PARTITION_BASE, FIRST_USER_OID + 0x3000 + index)


def make_router(service, **kwargs):
    kwargs.setdefault("retry", NO_RETRY)
    router = service.router(**kwargs)
    assert isinstance(router, RouterClient)
    return router


class TestCircuitBreakerUnit:
    def test_opens_after_consecutive_failures_only(self):
        assert (THRESHOLD, COOLDOWN_S) == (3, 0.25)
        breaker = CircuitBreaker()
        breaker.record_failure(0.0)
        breaker.record_failure(0.1)
        breaker.record_success()  # resets the streak
        breaker.record_failure(0.2)
        breaker.record_failure(0.3)
        assert breaker.state == "closed"
        breaker.record_failure(0.4)
        assert breaker.state == "open"
        assert not breaker.allow(0.5)

    def test_half_open_single_probe_then_close(self):
        breaker = CircuitBreaker()
        for _ in range(THRESHOLD):
            breaker.record_failure(0.0)
        assert not breaker.allow(0.2)
        assert breaker.allow(0.3)  # cooldown elapsed: one trial allowed
        assert breaker.state == "half_open"
        assert not breaker.allow(0.3)  # second concurrent trial rejected
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow(0.4)

    def test_half_open_failure_reopens_with_fresh_cooldown(self):
        breaker = CircuitBreaker()
        for _ in range(THRESHOLD):
            breaker.record_failure(0.0)
        assert breaker.allow(0.3)
        breaker.record_failure(0.3)  # one failed trial re-opens it
        assert breaker.state == "open"
        assert not breaker.allow(0.5)  # 0.3 + 0.25 not yet reached
        assert breaker.allow(0.6)
        assert breaker.opens == 2


class TestBreakerIntegration:
    def test_dead_shard_trips_breaker_and_reads_fail_over(self, monkeypatch):
        # A long cooldown keeps the breaker open for the whole test however
        # slowly the reads run; the breaker reads the constant per call.
        monkeypatch.setattr(breaker_module, "COOLDOWN_S", 30.0)

        async def scenario():
            async with ClusterService(3) as service:
                async with make_router(service) as router:
                    body = b"mirrored payload" * 50
                    target = next(
                        oid(i)
                        for i in range(64)
                        if len(router.cluster_map.owners_for(oid(i), width=2)) == 2
                    )
                    assert (await router.write(target, body, 0)).ok
                    victim = router.cluster_map.owners_for(target)[0]
                    await service.stop_shard(victim)
                    for _ in range(6):
                        got, response = await router.read(target)
                        assert response.ok and got == body
                    stats = router.router_stats
                    assert stats.mirror_failovers == 6
                    # First reads burn real connection attempts; once the
                    # breaker opens the rest fast-fail locally.
                    assert stats.breaker_fastfails >= 3
                    assert router.breakers.of(victim).state == "open"

        run(scenario())

    def test_any_reply_closes_the_breaker(self):
        breaker = CircuitBreaker()

        async def scenario():
            async with ClusterService(2) as service:
                async with make_router(service) as router:
                    primary = router.cluster_map.owners_for(oid(7))[0]
                    router.breakers.breakers[primary] = breaker
                    breaker.record_failure(0.0)
                    breaker.record_failure(0.1)
                    # An honest reply (even FAIL for a missing object) is
                    # proof of life: the failure streak resets.
                    await router.read(oid(7))
                    assert breaker.failures == 0
                    assert breaker.state == "closed"

        run(scenario())


class TestDeadlineBudget:
    def test_client_deadline_caps_retries(self):
        async def scenario():
            async with ClusterService(1) as service:
                server = service.shards[0]

                def slow(command, seq):
                    return 0.2

                server.fault_hook = slow
                async with make_router(
                    service,
                    timeout=0.05,
                    retry=RetryPolicy(max_attempts=10, seed=1),
                ) as router:
                    loop = asyncio.get_running_loop()
                    client = router.client(0)
                    started = loop.time()
                    with pytest.raises(OsdServiceError):
                        await client.read(oid(0))  # no deadline: full retries
                    full = loop.time() - started
                    started = loop.time()
                    with pytest.raises(OsdServiceError):
                        await client.submit(
                            __import__("repro.osd.commands", fromlist=["Read"]).Read(
                                oid(0)
                            ),
                            deadline=loop.time() + 0.12,
                        )
                    bounded = loop.time() - started
                    assert bounded < full
                    assert bounded < 0.5
                    assert client.stats.deadline_exhausted >= 1

        run(scenario())

    def test_expired_deadline_fails_before_the_wire(self):
        async def scenario():
            async with ClusterService(1) as service:
                async with make_router(service) as router:
                    client = router.client(0)
                    loop = asyncio.get_running_loop()
                    from repro.osd import commands

                    with pytest.raises(OsdServiceError):
                        await client.submit(
                            commands.Read(oid(0)), deadline=loop.time() - 1.0
                        )
                    assert client.stats.deadline_exhausted == 1

        run(scenario())

    def test_router_deadline_bounds_whole_operation(self):
        async def scenario():
            async with ClusterService(2) as service:
                for server in service.shards.values():

                    def slow(command, seq):
                        return 0.15

                    server.fault_hook = slow
                async with make_router(
                    service,
                    timeout=1.0,
                    retry=RetryPolicy(max_attempts=5, seed=1),
                ) as router:
                    loop = asyncio.get_running_loop()
                    started = loop.time()
                    with pytest.raises(OsdServiceError):
                        # Mirrored write: primary leg + mirror leg + retries
                        # all share the one 0.25s budget.
                        await router.write(
                            oid(1), b"x" * 64, 0, deadline=started + 0.25
                        )
                    assert loop.time() - started < 1.0
                    # The aggregate carries every ClientStats counter.
                    assert router.stats.deadline_exhausted >= 1

        run(scenario())


class TestHedgedReads:
    def test_slow_primary_hedges_to_mirror(self):
        async def scenario():
            async with ClusterService(3) as service:
                monitor = ShardHealthMonitor()
                async with make_router(service, health_monitor=monitor) as router:
                    body = b"hedge me" * 100
                    target = next(
                        oid(i)
                        for i in range(64)
                        if len(router.cluster_map.owners_for(oid(i), width=2)) == 2
                    )
                    assert (await router.write(target, body, 0)).ok
                    primary = router.cluster_map.owners_for(target)[0]

                    def crawl(command, seq):
                        return 0.25

                    service.shards[primary].fault_hook = crawl
                    # Teach the detector the primary is pathologically slow.
                    health = monitor.health_of(primary)
                    health.baseline = 0.001
                    health.slowdown_ewma = 10.0

                    loop = asyncio.get_running_loop()
                    started = loop.time()
                    got, response = await router.read(target)
                    elapsed = loop.time() - started
                    assert response.ok and got == body
                    # The mirror answered long before the crawling primary.
                    assert elapsed < 0.2
                    assert router.router_stats.hedged_reads == 1
                    assert router.router_stats.hedge_wins == 1
                    # The losing primary leg keeps draining in background.
                    await asyncio.sleep(0)

        run(scenario())

    def test_healthy_primary_never_hedges(self):
        async def scenario():
            async with ClusterService(3) as service:
                monitor = ShardHealthMonitor()
                async with make_router(service, health_monitor=monitor) as router:
                    body = b"calm" * 64
                    assert (await router.write(oid(9), body, 0)).ok
                    got, response = await router.read(oid(9))
                    assert response.ok and got == body
                    assert router.router_stats.hedged_reads == 0
                    # Passive traffic fed the monitor.
                    primary = router.cluster_map.owners_for(oid(9))[0]
                    assert monitor.health_of(primary).ops > 0

        run(scenario())
