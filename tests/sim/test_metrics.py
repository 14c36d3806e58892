"""Tests for metrics recording and windowing."""

import pytest

from repro.sim.metrics import MetricsRecorder, RunMetrics
from repro.units import MB


class TestRunMetrics:
    def test_empty_summary(self):
        metrics = MetricsRecorder().summarize()
        assert metrics.requests == 0
        assert metrics.hit_ratio == 0.0
        assert metrics.bandwidth == 0.0

    def test_hit_ratio(self):
        recorder = MetricsRecorder()
        recorder.record(0.0, 0.1, 100, hit=True)
        recorder.record(0.1, 0.1, 100, hit=False)
        recorder.record(0.2, 0.1, 100, hit=True)
        metrics = recorder.summarize()
        assert metrics.hit_ratio == pytest.approx(2 / 3)
        assert metrics.hit_ratio_percent == pytest.approx(200 / 3)

    def test_bandwidth_is_bytes_over_span(self):
        recorder = MetricsRecorder()
        recorder.record(0.0, 1.0, 10 * MB, hit=True)
        recorder.record(1.0, 1.0, 10 * MB, hit=True)
        metrics = recorder.summarize()
        assert metrics.elapsed_seconds == pytest.approx(2.0)
        assert metrics.bandwidth_mb_per_sec == pytest.approx(10.0)

    def test_latency_stats(self):
        recorder = MetricsRecorder()
        for latency in (0.001, 0.002, 0.003, 0.010):
            recorder.record(0.0, latency, 1, hit=True)
        metrics = recorder.summarize()
        assert metrics.mean_latency == pytest.approx(0.004)
        assert metrics.median_latency == pytest.approx(0.002)
        assert metrics.p99_latency == pytest.approx(0.010)
        assert metrics.mean_latency_ms == pytest.approx(4.0)

    def test_read_write_split(self):
        recorder = MetricsRecorder()
        recorder.record(0.0, 0.1, 1, hit=True)
        recorder.record(0.0, 0.1, 1, hit=False, is_write=True)
        metrics = recorder.summarize()
        assert metrics.reads == 1
        assert metrics.writes == 1

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            MetricsRecorder().record(0.0, -0.1, 1, hit=True)


class TestWindows:
    def test_no_marks_single_window(self):
        recorder = MetricsRecorder()
        recorder.record(0.0, 0.1, 1, hit=True)
        windows = recorder.windows()
        assert len(windows) == 1
        assert windows[0].label == "start"
        assert windows[0].metrics.requests == 1

    def test_marks_split_run(self):
        recorder = MetricsRecorder()
        for _ in range(3):
            recorder.record(0.0, 0.1, 1, hit=True)
        recorder.mark("fail-0")
        for _ in range(2):
            recorder.record(1.0, 0.1, 1, hit=False)
        windows = recorder.windows()
        assert [w.label for w in windows] == ["start", "fail-0"]
        assert windows[0].metrics.requests == 3
        assert windows[1].metrics.requests == 2
        assert windows[0].metrics.hit_ratio == 1.0
        assert windows[1].metrics.hit_ratio == 0.0

    def test_summarize_slice(self):
        recorder = MetricsRecorder()
        for index in range(10):
            recorder.record(float(index), 0.1, 1, hit=index % 2 == 0)
        metrics = recorder.summarize(5, 10)
        assert metrics.requests == 5

    def test_reset(self):
        recorder = MetricsRecorder()
        recorder.record(0.0, 0.1, 1, hit=True)
        recorder.mark("m")
        recorder.reset()
        assert recorder.samples == []
        assert len(recorder.windows()) == 1
