"""Tests for experiment configuration: profiles, policies, workloads."""

import pytest

from repro.experiments.common import (
    NORMAL_RUN_POLICIES,
    PROFILES,
    active_profile,
    build_experiment_cache,
    make_policy,
    make_trace,
)
from repro.workload.medisyn import Locality


class TestProfiles:
    def test_all_profiles_present(self):
        assert set(PROFILES) == {"smoke", "fast", "full"}

    def test_active_profile_by_name(self):
        assert active_profile("smoke").name == "smoke"

    def test_active_profile_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "full")
        assert active_profile().name == "full"

    def test_default_is_fast(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        assert active_profile().name == "fast"

    def test_unknown_profile_raises(self):
        with pytest.raises(ValueError):
            active_profile("turbo")

    def test_requests_scale_with_fraction(self):
        fast = PROFILES["fast"]
        assert fast.requests_for(Locality.WEAK) == int(25_616 * fast.request_fraction)
        assert PROFILES["full"].requests_for(Locality.MEDIUM) == 51_057

    def test_scaled_models_preserve_bandwidth(self):
        profile = PROFILES["fast"]
        from repro.flash.latency import INTEL_540S_SSD

        scaled = profile.scaled_device_model()
        assert scaled.read_bandwidth == INTEL_540S_SSD.read_bandwidth
        assert scaled.read_overhead == pytest.approx(
            INTEL_540S_SSD.read_overhead / profile.size_scale
        )


class TestPolicyRegistry:
    def test_normal_run_policy_keys_resolve(self):
        for key in NORMAL_RUN_POLICIES:
            assert make_policy(key).name == key

    def test_full_replication(self):
        assert make_policy("full-replication").name == "full-replication"

    def test_reo_fraction_parsing(self):
        assert make_policy("Reo-40%").reserve_fraction == pytest.approx(0.4)

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            make_policy("raid6")


class TestWorkloadFactory:
    def test_trace_statistics(self):
        profile = PROFILES["smoke"]
        trace = make_trace(Locality.MEDIUM, profile)
        assert len(trace.catalog) == 4_000
        assert len(trace) == profile.requests_for(Locality.MEDIUM)
        # Scale shrinks the data set by the profile's factor.
        assert trace.total_bytes == pytest.approx(
            17.6e9 / profile.size_scale, rel=0.15
        )

    def test_write_ratio_passthrough(self):
        trace = make_trace(Locality.MEDIUM, PROFILES["smoke"], write_ratio=0.3)
        assert trace.write_ratio == pytest.approx(0.3, abs=0.05)

    def test_same_seed_same_trace(self):
        profile = PROFILES["smoke"]
        a = make_trace(Locality.WEAK, profile)
        b = make_trace(Locality.WEAK, profile)
        assert a.records == b.records


class TestCacheFactory:
    def test_cache_sized_and_configured(self):
        profile = PROFILES["smoke"]
        cache = build_experiment_cache("Reo-20%", 1_000_000, profile)
        assert cache.policy.name == "Reo-20%"
        assert cache.array.capacity_bytes == 1_000_000
        assert cache.array.chunk_size == profile.chunk_size

    def test_failure_chunk_override(self):
        profile = PROFILES["smoke"]
        cache = build_experiment_cache(
            "1-parity", 1_000_000, profile, chunk_size=profile.failure_chunk_size
        )
        assert cache.array.chunk_size == profile.failure_chunk_size

    def test_policy_object_and_build_options_pass_through(self):
        profile = PROFILES["smoke"]
        policy = make_policy("Reo-40%")
        cache = build_experiment_cache(
            policy, 1_000_000, profile, prioritized_recovery=False
        )
        assert cache.policy is policy
        assert cache.recovery.prioritized is False


class TestCli:
    def test_list(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig5", "fig8", "space-table", "ablations", "endurance"):
            assert name in out

    def test_endurance_artefact_runs(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "smoke")
        from repro.experiments.__main__ import main

        assert main(["endurance"]) == 0
        out = capsys.readouterr().out
        assert "Write amplification" in out
        assert "NAND page writes" in out
