"""Unit tests for the shard-level health detector."""

import asyncio
import dataclasses

import pytest

from repro.cluster.health import SHARD_HEALTH_POLICY, ShardHealthMonitor, ShardProbe
from repro.core.health import HealthPolicy
from repro.net.client import OsdServiceError

BASE = 0.001  # healthy round-trip used to warm baselines


def warm(monitor, shard_id, ops=None, latency=BASE):
    """Feed enough healthy samples to finish warm-up."""
    count = ops if ops is not None else monitor.policy.min_ops
    for i in range(count):
        monitor.observe(shard_id, latency, ok=True, now=float(i))


class TestPolicyValidation:
    def test_threshold_ordering_enforced(self):
        with pytest.raises(ValueError):
            HealthPolicy(suspect_error_rate=0.5, fail_error_rate=0.4)
        with pytest.raises(ValueError):
            HealthPolicy(suspect_slowdown=10.0, fail_slowdown=5.0)
        with pytest.raises(ValueError):
            HealthPolicy(alpha=0.0)
        with pytest.raises(ValueError):
            HealthPolicy(confirm_ops=0)


class TestWarmup:
    def test_no_verdict_before_min_ops(self):
        monitor = ShardHealthMonitor()
        for i in range(monitor.policy.min_ops - 1):
            monitor.observe(0, None, ok=False, now=float(i))
        assert monitor.state_of(0) == "online"
        assert monitor.transitions == []

    def test_baseline_learned_from_first_successes(self):
        monitor = ShardHealthMonitor()
        warm(monitor, 0, latency=0.002)
        health = monitor.health_of(0)
        assert health.baseline == pytest.approx(0.002)

    def test_baseline_floor_shields_loopback_jitter(self):
        policy = dataclasses.replace(SHARD_HEALTH_POLICY, baseline_floor=0.0005)
        monitor = ShardHealthMonitor(policy)
        warm(monitor, 0, latency=0.00001)
        assert monitor.health_of(0).baseline == pytest.approx(0.0005)


class TestErrorPath:
    def test_one_error_burst_does_not_fail(self):
        """A short burst parks the shard SUSPECT; recovery earns ONLINE back."""
        policy = dataclasses.replace(SHARD_HEALTH_POLICY, confirm_ops=8)
        monitor = ShardHealthMonitor(policy)
        warm(monitor, 0)
        # Burst: enough errors to cross suspect, not enough persistence.
        for i in range(4):
            monitor.observe(0, None, ok=False, now=10.0 + i)
        assert monitor.state_of(0) == "suspect"
        for i in range(40):
            monitor.observe(0, BASE, ok=True, now=20.0 + i)
        assert monitor.state_of(0) == "online"
        assert monitor.transitions[-1].new == "online"

    def test_failed_verdict_emitted_once(self):
        monitor = ShardHealthMonitor()
        warm(monitor, 0)
        for i in range(80):
            monitor.observe(0, None, ok=False, now=10.0 + i)
        fails = [t for t in monitor.transitions if t.new == "failed"]
        assert len(fails) == 1


class TestSlowdownPath:
    def test_fail_slow_ramp_detected_via_slowdown(self):
        monitor = ShardHealthMonitor()
        warm(monitor, 0)
        # Injected latency 100x baseline: crosses suspect quickly, then
        # persists past confirm_ops into FAILED — with zero errors.
        for i in range(60):
            monitor.observe(0, BASE * 100, ok=True, now=10.0 + i)
            if monitor.state_of(0) == "failed":
                break
        assert monitor.state_of(0) == "failed"
        assert monitor.health_of(0).errors == 0
        assert "slowdown" in monitor.transitions[0].reason

    def test_mild_jitter_stays_online(self):
        monitor = ShardHealthMonitor()
        warm(monitor, 0)
        for i in range(50):
            monitor.observe(0, BASE * (1.0 + 0.5 * (i % 3)), ok=True, now=10.0 + i)
        assert monitor.state_of(0) == "online"
        assert monitor.transitions == []


class TestListenersAndReset:
    def test_listener_sees_transitions(self):
        seen = []
        monitor = ShardHealthMonitor()
        monitor.listeners.append(seen.append)
        warm(monitor, 3)
        for i in range(60):
            monitor.observe(3, None, ok=False, now=10.0 + i)
        assert [t.new for t in seen] == ["suspect", "failed"]
        assert seen[0].shard_id == 3


class _StubClient:
    def __init__(self, fail=False):
        self.fail = fail
        self.calls = 0

    async def service_stats(self):
        self.calls += 1
        if self.fail:
            raise OsdServiceError("down")
        return {}


class _StubRouter:
    """Just enough RouterClient surface for ShardProbe."""

    def __init__(self, clients):
        self._stub_clients = clients

        class _Map:
            readable_ids = tuple(sorted(clients))

        self.cluster_map = _Map()

    def client(self, shard_id):
        return self._stub_clients[shard_id]


class TestShardProbe:
    def test_probe_feeds_monitor_both_outcomes(self):
        clients = {0: _StubClient(), 1: _StubClient(fail=True)}
        router = _StubRouter(clients)
        monitor = ShardHealthMonitor()
        probe = ShardProbe(router, monitor)

        async def run():
            for _ in range(3):
                await probe.probe_once()

        asyncio.run(run())
        assert probe.probes == 6
        assert probe.failures == 3
        assert monitor.health_of(0).ops == 3
        assert monitor.health_of(0).errors == 0
        assert monitor.health_of(1).errors == 3

    def test_probe_loop_starts_and_stops(self):
        clients = {0: _StubClient()}
        router = _StubRouter(clients)
        monitor = ShardHealthMonitor()

        async def run():
            probe = ShardProbe(router, monitor, interval=0.001)
            await probe.start()
            await asyncio.sleep(0.02)
            await probe.aclose()
            return clients[0].calls

        calls = asyncio.run(run())
        assert calls >= 2
