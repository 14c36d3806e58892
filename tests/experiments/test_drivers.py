"""Smoke-level tests of the experiment drivers (full runs live in benchmarks/)."""

import importlib
import inspect
import pkgutil

import pytest

import repro.experiments

from repro.experiments.ablations import run_chunk_size_sweep
from repro.experiments.common import HIT, PROFILES, make_trace, replay
from repro.experiments.concurrency import run_concurrency_sweep
from repro.experiments.failure import run_failure_resistance
from repro.experiments.normal_run import run_normal_run_figure
from repro.experiments.recovery_timeline import run_recovery_timeline
from repro.experiments.space_efficiency import run_space_efficiency_table
from repro.experiments.warmup import run_warmup_experiment
from repro.experiments.writeback import run_writeback_figure
from repro.sim.runner import FailureEvent
from repro.workload.medisyn import Locality

SMOKE = PROFILES["smoke"]

#: Every driver's parameters. A value no caller sets is a module constant
#: (``CACHE_PERCENT``, ``endurance.WA_SEED``, ...); a parameter is what a
#: test varies or a ROADMAP item plans to vary.
DRIVER_PARAMETERS = {
    "ablations.run_chunk_size_sweep": ("profile",),
    "ablations.run_eviction_policy_ablation": ("profile",),
    "ablations.run_hot_parity_sweep": ("profile",),
    "ablations.run_hotness_indicator_ablation": ("profile",),
    "ablations.run_recovery_priority_ablation": ("profile",),
    "chaos_campaign.run_chaos_campaign": ("seed",),
    "cluster_campaign.run_cluster_campaign": ("seed",),
    "concurrency.run_concurrency_sweep": ("profile", "clients"),
    "endurance.run_parity_placement_wear": (),
    "endurance.run_write_amplification_sweep": (),
    "failure.run_failure_resistance": ("profile", "policy_keys"),
    "fault_campaign.run_fault_campaign": ("profile", "seed", "num_objects", "num_requests"),
    "normal_run.run_normal_run_figure": ("locality", "profile", "cache_percents", "policy_keys"),
    "recovery_timeline.run_recovery_timeline": (
        "profile", "cache_percent", "windows", "recovery_share",
    ),
    "space_efficiency.run_space_efficiency_table": ("profile", "policy_keys"),
    "warmup.run_warmup_experiment": ("profile",),
    "writeback.run_writeback_figure": ("profile", "write_ratios", "policy_keys"),
}


def drivers():
    """``{"module.run_name": function}`` for every driver the package defines."""
    found = {}
    for info in pkgutil.iter_modules(repro.experiments.__path__):
        if info.name.startswith("_"):
            continue
        module = importlib.import_module(f"repro.experiments.{info.name}")
        for name, value in vars(module).items():
            if name.startswith("run_") and getattr(value, "__module__", None) == module.__name__:
                found[f"{info.name}.{name}"] = value
    return found


def test_every_driver_accepts_only_its_pinned_parameters():
    found = drivers()
    assert sorted(found) == sorted(DRIVER_PARAMETERS)
    for key, driver in found.items():
        assert tuple(inspect.signature(driver).parameters) == DRIVER_PARAMETERS[key], key


class TestReplay:
    def test_protocol_follows_failures(self):
        trace = make_trace(Locality.MEDIUM, SMOKE)
        _, normal = replay("Reo-20%", trace, SMOKE, 10)
        # Without failures the leading warm-up fraction goes unrecorded...
        assert normal.metrics.requests == len(trace) - int(
            len(trace) * SMOKE.warmup_fraction
        )
        # ...with failures the cache is prewarmed and every request counts.
        _, failed = replay(
            "Reo-20%", trace, SMOKE, 10, failures=[FailureEvent(len(trace) // 2, 0)]
        )
        assert failed.metrics.requests == len(trace)


class TestNormalRun:
    def test_single_cell(self):
        trace = make_trace(Locality.MEDIUM, SMOKE)
        cache, result = replay("1-parity", trace, SMOKE, 8)
        assert cache.policy.name == "1-parity"
        assert cache.array.capacity_bytes == pytest.approx(trace.total_bytes * 0.08, rel=1e-5)
        assert 0 < result.hit_ratio_percent < 100
        assert result.bandwidth_mb_per_sec > 0
        assert result.mean_latency_ms > 0
        assert result.space_efficiency == pytest.approx(0.8, abs=0.03)

    def test_figure_subset_and_format(self):
        figure = run_normal_run_figure(
            Locality.MEDIUM,
            SMOKE,
            cache_percents=(6, 10),
            policy_keys=("0-parity", "Reo-20%"),
        )
        assert len(figure.series) == 3
        series = figure.series[HIT]
        assert sum(len(values) for values in series.values()) == 4
        assert set(series) == {"0-parity", "Reo-20%"}
        assert all(len(values) == 2 for values in series.values())
        text = figure.format()
        assert "Fig 6" in text and "Hit Ratio" in text and "Latency" in text


class TestFailure:
    def test_subset_windows(self):
        figure = run_failure_resistance(SMOKE, policy_keys=("0-parity", "Reo-20%"))
        assert figure.x_values == [0, 1, 2, 3, 4]
        hit = figure.series[HIT]
        assert len(hit["0-parity"]) == 5
        assert hit["0-parity"][1] == 0.0
        assert hit["Reo-20%"][4] > 0.0
        assert "Fig 8" in figure.format()


class TestWriteback:
    def test_subset(self):
        figure = run_writeback_figure(
            SMOKE, write_ratios=(20,), policy_keys=("full-replication", "Reo-10%")
        )
        full = figure.series[HIT]["full-replication"][0]
        reo = figure.series[HIT]["Reo-10%"][0]
        assert reo > full
        assert "Fig 9" in figure.format()


class TestSpaceEfficiency:
    def test_single_policy(self):
        table = run_space_efficiency_table(SMOKE, policy_keys=("Reo-10%",))
        for locality in ("weak", "medium", "strong"):
            assert 85.0 <= table.rows["Reo-10%"][locality] <= 97.0
        assert "paper Reo-10%" in table.format()


class TestSupplementary:
    """The shape conditions of the benchmarks/ runs, at the smoke profile."""

    def test_recovery_timeline(self):
        timeline = run_recovery_timeline(SMOKE)
        series = timeline.series[HIT]["prioritized"]
        assert series[0] > 20.0
        assert min(series[1:]) > 0.0
        assert series[-1] >= min(series[1:])
        assert timeline.counts["prioritized objects rebuilt"] > 0
        assert "Recovery timeline" in timeline.format()

    def test_warmup_restart(self):
        experiment = run_warmup_experiment(SMOKE)
        cold = experiment.series[HIT]["cold restart"]
        warm = experiment.series[HIT]["preloaded restart"]
        assert experiment.counts["objects preloaded"] > 0
        assert warm[0] > cold[0] + 5.0
        assert cold[-1] > cold[0]

    def test_concurrency_sweep(self):
        sweep = run_concurrency_sweep(SMOKE, clients=(1, 4))
        bandwidth = [row["MB/sec"] for row in sweep.rows.values()]
        latency = [row["Latency (ms)"] for row in sweep.rows.values()]
        hit = [row["Hit %"] for row in sweep.rows.values()]
        assert max(bandwidth) >= bandwidth[0]
        assert bandwidth[-1] >= bandwidth[0] * 0.95
        assert latency == sorted(latency)
        assert max(hit) - min(hit) < 2.0

    def test_chunk_size_sweep(self):
        result = run_chunk_size_sweep(SMOKE)
        assert len(result.rows) == 3
        for metrics in result.rows.values():
            assert metrics["hit%"] > 0
