"""Tests for the shared escalation decision and per-device health monitoring."""

import pytest

from repro.cluster.health import SHARD_HEALTH_POLICY
from repro.core.health import HealthMonitor, HealthPolicy, HealthRecord, escalate
from repro.flash.array import ArrayIoResult, DeviceIoSample, FlashArray
from repro.flash.latency import ZERO_COST


def make_array():
    return FlashArray(num_devices=4, device_capacity=10**6, chunk_size=64, model=ZERO_COST)


def make_monitor(array=None, **policy_overrides):
    array = array or make_array()
    return HealthMonitor(array, policy=HealthPolicy(**policy_overrides))


def io_result(device_id, *, reads=1, errors=0, seconds=0.0, bytes_read=0,
              op="read", degraded=False, elapsed=0.0):
    return ArrayIoResult(
        elapsed=elapsed,
        op=op,
        degraded=degraded,
        device_io={
            device_id: DeviceIoSample(
                reads=reads, errors=errors, seconds=seconds, bytes_read=bytes_read
            )
        },
    )


#: (name, record fields as functions of the policy, state, verdict). ``ops``
#: counts from the demotion at op 0 unless ``suspect_at_ops`` says otherwise.
LADDER = [
    ("warming up", lambda p: dict(ops=p.min_ops - 1, error_ewma=1.0), "online", None),
    ("healthy", lambda p: dict(ops=p.min_ops), "online", None),
    (
        "errors cross the suspect line",
        lambda p: dict(ops=p.min_ops, error_ewma=p.suspect_error_rate),
        "online",
        ("suspect", "errors"),
    ),
    (
        "slowdown crosses the suspect line",
        lambda p: dict(ops=p.min_ops, slowdown_ewma=p.suspect_slowdown),
        "online",
        ("suspect", "slowdown"),
    ),
    (
        "hard error threshold",
        lambda p: dict(ops=p.min_ops, error_ewma=p.fail_error_rate),
        "suspect",
        ("failed", "hard"),
    ),
    (
        "hard slowdown threshold",
        lambda p: dict(ops=p.min_ops, slowdown_ewma=p.fail_slowdown),
        "suspect",
        ("failed", "hard"),
    ),
    (
        "still bad, confirm window open",
        lambda p: dict(
            ops=100 + p.confirm_ops - 1,
            suspect_at_ops=100,
            error_ewma=p.suspect_error_rate,
        ),
        "suspect",
        None,
    ),
    (
        "persistent after confirm_ops",
        lambda p: dict(
            ops=100 + p.confirm_ops,
            suspect_at_ops=100,
            error_ewma=p.suspect_error_rate,
        ),
        "suspect",
        ("failed", "persistent"),
    ),
    (
        "recovered after confirm_ops",
        lambda p: dict(ops=100 + p.confirm_ops, suspect_at_ops=100),
        "suspect",
        ("online", "recovered"),
    ),
]


@pytest.mark.parametrize(
    "policy", [HealthPolicy(), SHARD_HEALTH_POLICY], ids=["device", "shard"]
)
@pytest.mark.parametrize(
    "fields, state, verdict",
    [case[1:] for case in LADDER],
    ids=[case[0] for case in LADDER],
)
def test_escalation_ladder(policy, fields, state, verdict):
    """The one ladder, under both tiers' default thresholds."""
    record = HealthRecord(**fields(policy))
    before = HealthRecord(**fields(policy))
    assert escalate(policy, record, state) == verdict
    assert record == before  # pure: the monitors apply the verdict


class TestEwma:
    def test_attach_installs_array_hook(self):
        array = make_array()
        monitor = HealthMonitor(array)
        assert array.health is monitor

    def test_no_verdict_before_min_ops(self):
        monitor = make_monitor(min_ops=50)
        # A 100% error rate, but only a handful of samples: stay quiet.
        for _ in range(10):
            monitor.ingest(io_result(0, errors=1), now=0.0)
        assert monitor.array.devices[0].is_online
        assert monitor.transitions == []

    def test_single_error_in_batch_cannot_spike(self):
        monitor = make_monitor(alpha=0.02, min_ops=8, suspect_error_rate=0.05)
        # One error among many clean ops per batch: EWMA stays tiny because
        # the smoothing factor compounds per operation, not per batch.
        for _ in range(5):
            monitor.ingest(io_result(0, reads=2, errors=1), now=0.0)
            monitor.ingest(io_result(0, reads=98), now=0.0)
        health = monitor.health_of(0)
        assert health.error_ewma < monitor.policy.suspect_error_rate
        assert monitor.array.devices[0].is_online

    def test_sustained_error_rate_demotes_to_suspect(self):
        monitor = make_monitor()
        for _ in range(200):
            monitor.ingest(io_result(0, errors=1), now=1.0)
            if not monitor.array.devices[0].is_online:
                break
        device = monitor.array.devices[0]
        assert not device.is_online and device.is_available  # SUSPECT
        transition = monitor.transitions[0]
        assert (transition.old, transition.new) == ("online", "suspect")
        assert "error_ewma" in transition.reason

    def test_slowdown_ewma_is_scale_free(self):
        from repro.flash.latency import ServiceTimeModel

        model = ServiceTimeModel(0.001, 0.001, 1e6, 1e6)
        array = FlashArray(num_devices=4, device_capacity=10**6, chunk_size=64, model=model)
        monitor = HealthMonitor(array)
        # Observed exactly at model speed: slowdown converges to ~1.
        expected = 0.001 + 64 / 1e6
        for _ in range(100):
            monitor.ingest(
                io_result(1, bytes_read=64, seconds=expected), now=0.0
            )
        assert abs(monitor.health_of(1).slowdown_ewma - 1.0) < 0.01
        assert array.devices[1].is_online

    def test_fail_slow_device_demoted_by_latency_alone(self):
        from repro.flash.latency import ServiceTimeModel

        model = ServiceTimeModel(0.001, 0.001, 1e6, 1e6)
        array = FlashArray(num_devices=4, device_capacity=10**6, chunk_size=64, model=model)
        monitor = HealthMonitor(array, policy=HealthPolicy(suspect_slowdown=3.0))
        expected = 0.001 + 64 / 1e6
        for _ in range(400):
            monitor.ingest(
                io_result(2, bytes_read=64, seconds=10.0 * expected), now=2.5
            )
            if not array.devices[2].is_online:
                break
        assert not array.devices[2].is_online
        assert "slowdown_ewma" in monitor.transitions[0].reason


class TestEscalation:
    def test_poll_observes_fail_stop_once(self):
        monitor = make_monitor()
        monitor.array.fail_device(1)
        first = monitor.poll(now=4.0)
        assert [(t.device_id, t.new) for t in first] == [(1, "failed")]
        assert monitor.poll(now=5.0) == []  # dedup

    def test_suspect_grace_is_time_based_backstop(self):
        monitor = make_monitor(suspect_grace=10.0)
        monitor.array.devices[0].suspect()
        assert monitor.poll(now=100.0) == []  # starts the grace timer
        assert monitor.poll(now=105.0) == []  # within grace
        escalated = monitor.poll(now=111.0)
        assert [(t.old, t.new) for t in escalated] == [("suspect", "failed")]
        assert monitor.poll(now=200.0) == []  # dedup per generation

    def test_generation_change_resets_record(self):
        monitor = make_monitor()
        for _ in range(200):
            monitor.ingest(io_result(0, errors=1), now=0.0)
        assert monitor.health_of(0).error_ewma > 0.0
        # The monitor applied the ladder's verdicts to the device, and the
        # FAILED one is emitted exactly once per device generation.
        assert [(t.old, t.new) for t in monitor.transitions] == [
            ("online", "suspect"),
            ("suspect", "failed"),
        ]
        device = monitor.array.devices[0]
        device.fail()
        monitor.poll(now=1.0)
        device.replace()
        fresh = monitor.health_of(0)
        assert fresh.generation == device.generation
        assert fresh.ops == 0 and fresh.error_ewma == 0.0
        # The new generation can fail again: dedup is per generation.
        monitor.array.fail_device(0)
        assert monitor.poll(now=2.0) != []


class TestDegradedReads:
    def test_percentile_tracks_degraded_foreground_reads_only(self):
        monitor = make_monitor()
        for latency in (0.001, 0.002, 0.003):
            monitor.ingest(
                io_result(0, op="read", degraded=True, elapsed=latency), now=0.0
            )
        # Repair traffic and clean reads are not degraded-read samples.
        monitor.ingest(io_result(0, op="rebuild", degraded=True, elapsed=9.0), now=0.0)
        monitor.ingest(io_result(0, op="read", degraded=False, elapsed=9.0), now=0.0)
        assert len(monitor.degraded_read_latencies) == 3
        assert monitor.degraded_read_percentile(0.99) == 0.003
        assert monitor.degraded_read_percentile(0.0) == 0.001

    def test_percentile_zero_when_no_samples(self):
        assert make_monitor().degraded_read_percentile(0.99) == 0.0
