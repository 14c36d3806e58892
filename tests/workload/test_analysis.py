"""Tests for trace analysis."""

import random
from collections import OrderedDict
from pathlib import Path

import pytest

from repro.experiments.common import (
    NORMAL_RUN_POLICIES,
    PROFILES,
    build_experiment_cache,
    make_policy,
    make_trace,
)
from repro.experiments.writeback import POLICIES as WRITEBACK_POLICIES, WRITE_RATIOS
from repro.workload.analysis import footprint_curve, profile_trace, reuse_distances
from repro.workload.medisyn import Locality, MediSynConfig, generate_workload
from repro.workload.trace import Trace, TraceRecord

RESULTS = Path(__file__).resolve().parents[2] / "benchmarks" / "results"


def tiny_trace():
    catalog = {"a": 100, "b": 100, "c": 100}
    records = [TraceRecord(n) for n in ("a", "b", "a", "c", "a", "b")]
    return Trace("tiny", catalog, records)


def lru_hit_ratio(trace, capacity):
    """Byte-capacity LRU replay: admit only what fits, evict LRU until it does."""
    cache = OrderedDict()
    used = hits = 0
    for record in trace:
        size = trace.catalog[record.name]
        if record.name in cache:
            hits += 1
            cache.move_to_end(record.name)
        elif size <= capacity:
            while used + size > capacity:
                used -= cache.popitem(last=False)[1]
            cache[record.name] = size
            used += size
    return hits / len(trace)


class TestReuseDistances:
    def test_known_sequence(self):
        # a b a c a b: the second a sees b and itself (200 B), the third a
        # sees c and itself (200 B), the second b sees a, c and itself.
        assert reuse_distances(tiny_trace()) == [None, None, 200, None, 200, 300]

    def test_first_requests_have_no_distance(self):
        trace = Trace("x", {"a": 1, "b": 1}, [TraceRecord("a"), TraceRecord("b")])
        assert reuse_distances(trace) == [None, None]

    def test_immediate_reuse_distance_is_own_size(self):
        trace = Trace("x", {"a": 7}, [TraceRecord("a"), TraceRecord("a")])
        assert reuse_distances(trace) == [None, 7]


class TestFootprintCurve:
    def test_full_cache_hits_everything_but_cold_misses(self):
        trace = tiny_trace()
        ((_, ratio),) = footprint_curve(trace, fractions=(1.0,))
        # 6 requests, 3 cold misses -> ratio 0.5.
        assert ratio == pytest.approx(0.5)

    def test_tiny_cache_is_lru_not_ideal(self):
        trace = tiny_trace()
        ((_, ratio),) = footprint_curve(trace, fractions=(0.34,))
        # One object fits in 102 B. Keeping "a" would hit 2 of 6 requests,
        # but LRU always holds the last object, and no request repeats it.
        assert ratio == 0.0

    @pytest.mark.parametrize("seed", range(6))
    def test_equals_lru_replay(self, seed):
        rng = random.Random(seed)
        # Small (1-60 B) and large (200-900 B) objects.
        sizes = [rng.choice([rng.randint(1, 60), rng.randint(200, 900)]) for _ in range(40)]
        catalog = {f"o{i}": size for i, size in enumerate(sizes)}
        # Skewed popularity: object i is drawn about as often as 1/i^1.8.
        ranks = [min(int(rng.paretovariate(0.8)), 40) for _ in range(1_500)]
        trace = Trace("r", catalog, [TraceRecord(f"o{rank - 1}") for rank in ranks])
        largest = max(catalog[record.name] for record in trace)
        # Capacities from well below to above the largest requested object.
        capacities = (100, 400, largest - 1, 2_000, 6_000)
        fractions = tuple(capacity / trace.total_bytes for capacity in capacities)
        for fraction, ratio in footprint_curve(trace, fractions):
            assert ratio == lru_hit_ratio(trace, fraction * trace.total_bytes), fraction

    def test_monotone_in_fraction(self):
        config = MediSynConfig(
            locality=Locality.MEDIUM, num_objects=200, num_requests=3_000, scale=1000
        )
        trace = generate_workload(config)
        curve = footprint_curve(trace)
        ratios = [ratio for _, ratio in curve]
        assert ratios == sorted(ratios)

    def test_empty_trace(self):
        trace = Trace("e", {"a": 10}, [])
        ((_, ratio),) = footprint_curve(trace, fractions=(0.5,))
        assert ratio == 0.0


class TestProfile:
    def test_profile_fields(self):
        profile = profile_trace(tiny_trace())
        assert profile.requests == 6
        assert profile.unique_objects == 3
        assert profile.objects_accessed == 3
        assert profile.total_bytes == 300
        assert profile.accessed_bytes == 600
        assert profile.median_reuse_distance == 200.0
        assert profile.write_ratio == 0.0

    def test_skew_reflects_locality(self):
        weak = profile_trace(
            generate_workload(
                MediSynConfig(locality=Locality.WEAK, num_requests=5_000, scale=1000)
            )
        )
        strong = profile_trace(
            generate_workload(
                MediSynConfig(locality=Locality.STRONG, num_requests=5_000, scale=1000)
            )
        )
        assert strong.top_10pct_share > weak.top_10pct_share

    def test_format_renders(self):
        text = profile_trace(tiny_trace()).format()
        assert "Workload profile: tiny" in text
        assert "LRU hit ratio @ 4% cache" in text
        assert "ideal" not in text


class TestZipfEstimation:
    def test_recovers_generator_alpha(self):
        from repro.workload.analysis import estimate_zipf_alpha

        for locality, expected in (
            (Locality.WEAK, 0.6),
            (Locality.MEDIUM, 0.9),
            (Locality.STRONG, 1.2),
        ):
            trace = generate_workload(
                MediSynConfig(locality=locality, num_requests=40_000, scale=1000)
            )
            estimate = estimate_zipf_alpha(trace)
            assert estimate == pytest.approx(expected, abs=0.2), locality

    def test_degenerate_trace(self):
        from repro.workload.analysis import estimate_zipf_alpha

        trace = Trace("d", {"a": 1}, [TraceRecord("a")] * 5)
        assert estimate_zipf_alpha(trace) == 0.0

    def test_uniform_trace_near_zero(self):
        from repro.workload.analysis import estimate_zipf_alpha

        catalog = {f"k{i}": 1 for i in range(50)}
        records = [TraceRecord(f"k{i % 50}") for i in range(5_000)]
        trace = Trace("u", catalog, records)
        assert estimate_zipf_alpha(trace) < 0.1


class TestCli:
    def test_generate_and_profile(self, tmp_path, capsys):
        from repro.workload.__main__ import main

        out = tmp_path / "t.jsonl"
        assert main(["generate", "medium", str(out), "--objects", "50",
                     "--requests", "200", "--scale", "1000"]) == 0
        assert out.exists()
        assert main(["profile", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "Workload profile" in captured


class TestNormalRunOracle:
    """The uniform-scheme hit ratios of Figs. 5-7 and 9 are byte-capacity LRU.

    Each cell's cache holds the target's usable bytes over the scheme's
    storage multiplier in logical bytes, and hits count after the warm-up
    cutoff, so one stack pass per trace reproduces the committed text.
    """

    @pytest.mark.parametrize(
        "locality, text",
        [
            (Locality.WEAK, "fig5_normal_run_weak.txt"),
            (Locality.MEDIUM, "fig6_normal_run_medium.txt"),
            (Locality.STRONG, "fig7_normal_run_strong.txt"),
        ],
    )
    def test_uniform_cells_match_the_committed_figure(self, locality, text):
        profile = PROFILES["fast"]
        trace = make_trace(locality, profile)
        cutoff = int(len(trace) * profile.warmup_fraction)
        distances = reuse_distances(trace)[cutoff:]
        largest = max(trace.catalog[record.name] for record in trace)
        hit_block = (RESULTS / text).read_text().split("\n\n")[0].splitlines()
        assert hit_block[2].split()[-len(NORMAL_RUN_POLICIES):] == list(NORMAL_RUN_POLICIES)
        for row in hit_block[4:]:
            percent, *cells = row.split()
            printed = dict(zip(NORMAL_RUN_POLICIES, cells))
            for key in ("0-parity", "1-parity", "2-parity"):
                cache = build_experiment_cache(
                    key, int(trace.total_bytes * int(percent) / 100), profile
                )
                multiplier = make_policy(key).scheme_for(3).storage_multiplier(5)
                capacity = cache.target.usable_bytes / multiplier
                assert largest <= capacity  # no object bypasses admission
                hits = sum(1 for d in distances if d is not None and d <= capacity)
                assert f"{100 * hits / len(distances):.1f}" == printed[key], (percent, key)

    @pytest.mark.parametrize("ratio", WRITE_RATIOS)
    def test_full_replication_column_of_fig9(self, ratio):
        # Clean and dirty objects are both fully replicated, so a write is
        # one more reference to the object; hits count over every request.
        profile = PROFILES["fast"]
        trace = make_trace(Locality.MEDIUM, profile, write_ratio=ratio / 100)
        cutoff = int(len(trace) * profile.warmup_fraction)
        distances = reuse_distances(trace)[cutoff:]
        hit_block = (RESULTS / "fig9_writeback.txt").read_text().split("\n\n")[0].splitlines()
        assert hit_block[2].split()[-len(WRITEBACK_POLICIES):] == list(WRITEBACK_POLICIES)
        rows = {int(row.split()[0]): row.split()[1:] for row in hit_block[4:]}
        printed = dict(zip(WRITEBACK_POLICIES, rows[ratio]))["full-replication"]
        cache = build_experiment_cache(
            "full-replication", int(trace.total_bytes * 10 / 100), profile
        )
        multiplier = make_policy("full-replication").scheme_for(3).storage_multiplier(5)
        capacity = cache.target.usable_bytes / multiplier
        assert max(trace.catalog.values()) <= capacity
        hits = sum(1 for d in distances if d is not None and d <= capacity)
        assert f"{100 * hits / len(distances):.1f}" == printed
