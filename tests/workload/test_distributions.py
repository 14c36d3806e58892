"""Tests for the Zipf and lognormal samplers."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workload.distributions import LognormalSizeSampler, ZipfSampler


class TestZipfSampler:
    def test_invalid_args(self):
        with pytest.raises(WorkloadError):
            ZipfSampler(0, 1.0, seed=0)
        with pytest.raises(WorkloadError):
            ZipfSampler(10, -0.5, seed=0)
        with pytest.raises(WorkloadError):
            ZipfSampler(10, 1.0, seed=0).sample_many(-1)

    def test_samples_in_range(self):
        sampler = ZipfSampler(100, 0.9, seed=1)
        ranks = sampler.sample_many(10_000)
        assert ranks.min() >= 0
        assert ranks.max() < 100

    def test_deterministic_under_seed(self):
        a = ZipfSampler(50, 0.8, seed=42).sample_many(1000)
        b = ZipfSampler(50, 0.8, seed=42).sample_many(1000)
        assert np.array_equal(a, b)

    def test_rank_zero_most_popular(self):
        sampler = ZipfSampler(100, 1.0, seed=7)
        ranks = sampler.sample_many(50_000)
        counts = np.bincount(ranks, minlength=100)
        assert counts[0] == counts.max()

    def test_higher_alpha_concentrates_mass(self):
        weak = ZipfSampler(1000, 0.6, seed=3)
        strong = ZipfSampler(1000, 1.2, seed=3)
        weak_top = sum(weak.probability(rank) for rank in range(10))
        strong_top = sum(strong.probability(rank) for rank in range(10))
        assert strong_top > weak_top

    def test_alpha_zero_is_uniform(self):
        sampler = ZipfSampler(10, 0.0, seed=0)
        for rank in range(10):
            assert sampler.probability(rank) == pytest.approx(0.1)

    def test_probability_sums_to_one(self):
        sampler = ZipfSampler(64, 0.9, seed=0)
        assert sum(sampler.probability(rank) for rank in range(64)) == pytest.approx(1.0)

    def test_probability_bad_rank(self):
        with pytest.raises(WorkloadError):
            ZipfSampler(10, 1.0, seed=0).probability(10)

    def test_single_sample(self):
        assert 0 <= ZipfSampler(10, 1.0, seed=1).sample() < 10


class TestLognormalSizeSampler:
    def test_invalid_args(self):
        with pytest.raises(WorkloadError):
            LognormalSizeSampler(0, seed=0)
        with pytest.raises(WorkloadError):
            LognormalSizeSampler(100, sigma=-1, seed=0)
        with pytest.raises(WorkloadError):
            LognormalSizeSampler(100, min_size=0, seed=0)
        with pytest.raises(WorkloadError):
            LognormalSizeSampler(100, min_size=50, max_size=10, seed=0)

    def test_mean_approximates_target(self):
        sampler = LognormalSizeSampler(mean_size=10_000, sigma=0.6, seed=5)
        sizes = sampler.sample_many(50_000)
        assert sizes.mean() == pytest.approx(10_000, rel=0.05)

    def test_min_size_clamped(self):
        sampler = LognormalSizeSampler(mean_size=2, sigma=2.0, min_size=1, seed=6)
        assert sampler.sample_many(10_000).min() >= 1

    def test_max_size_clamped(self):
        sampler = LognormalSizeSampler(mean_size=1000, sigma=1.0, max_size=2000, seed=7)
        assert sampler.sample_many(10_000).max() <= 2000

    def test_deterministic_under_seed(self):
        a = LognormalSizeSampler(1000, seed=9).sample_many(100)
        b = LognormalSizeSampler(1000, seed=9).sample_many(100)
        assert np.array_equal(a, b)

    def test_sizes_are_integers(self):
        sizes = LognormalSizeSampler(500, seed=10).sample_many(10)
        assert sizes.dtype == np.int64
