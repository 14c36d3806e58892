"""Samplers for the synthetic workload generator.

MediSyn [Tang et al., NOSSDAV'03] models streaming-media access popularity
with Zipf-like distributions and file sizes with heavy-tailed (lognormal)
distributions. These two samplers are the corresponding building blocks;
both are deterministic under a seed.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import WorkloadError

__all__ = ["LognormalSizeSampler", "ZipfSampler"]


class ZipfSampler:
    """Samples ranks ``0..n-1`` with probability proportional to ``1/(r+1)^alpha``.

    ``alpha`` controls locality: larger values concentrate accesses on the
    most popular objects. ``alpha = 0`` degenerates to uniform.
    """

    def __init__(self, num_items: int, alpha: float, seed: int) -> None:
        if num_items < 1:
            raise WorkloadError("need at least one item to sample")
        if alpha < 0:
            raise WorkloadError("zipf exponent cannot be negative")
        self.num_items = num_items
        self.alpha = alpha
        weights = 1.0 / np.power(np.arange(1, num_items + 1, dtype=np.float64), alpha)
        self._cdf = np.cumsum(weights / weights.sum())
        self._rng = np.random.default_rng(seed)

    def sample(self) -> int:
        """Draw one rank."""
        return int(np.searchsorted(self._cdf, self._rng.random(), side="right"))

    def sample_many(self, count: int) -> np.ndarray:
        """Draw ``count`` ranks as an int64 array (vectorised)."""
        if count < 0:
            raise WorkloadError("sample count cannot be negative")
        draws = self._rng.random(count)
        return np.searchsorted(self._cdf, draws, side="right").astype(np.int64)

    def probability(self, rank: int) -> float:
        """The probability mass of a given rank."""
        if not 0 <= rank < self.num_items:
            raise WorkloadError(f"rank {rank} outside [0, {self.num_items})")
        previous = self._cdf[rank - 1] if rank > 0 else 0.0
        return float(self._cdf[rank] - previous)


class LognormalSizeSampler:
    """Samples object sizes from a clamped lognormal distribution.

    Parameterised by the target *mean* size (the paper quotes a 4.4 MB mean
    object size) and a shape ``sigma``; ``mu`` is derived so that the
    distribution's mean equals the target before clamping.
    """

    def __init__(
        self,
        mean_size: float,
        sigma: float = 0.6,
        min_size: int = 1,
        max_size: Optional[int] = None,
        *,
        seed: int,
    ) -> None:
        if mean_size <= 0:
            raise WorkloadError("mean size must be positive")
        if sigma < 0:
            raise WorkloadError("sigma cannot be negative")
        if min_size < 1:
            raise WorkloadError("minimum size must be at least 1 byte")
        if max_size is not None and max_size < min_size:
            raise WorkloadError("max size cannot be below min size")
        self.mean_size = mean_size
        self.sigma = sigma
        self.min_size = min_size
        self.max_size = max_size
        # E[lognormal(mu, sigma)] = exp(mu + sigma^2/2)  =>  solve for mu.
        self._mu = float(np.log(mean_size) - sigma**2 / 2)
        self._rng = np.random.default_rng(seed)

    def sample(self) -> int:
        """Draw one size in bytes."""
        return int(self.sample_many(1)[0])

    def sample_many(self, count: int) -> np.ndarray:
        """Draw ``count`` sizes as an int64 array."""
        if count < 0:
            raise WorkloadError("sample count cannot be negative")
        raw = self._rng.lognormal(mean=self._mu, sigma=self.sigma, size=count)
        sizes = np.maximum(raw, self.min_size)
        if self.max_size is not None:
            sizes = np.minimum(sizes, self.max_size)
        return sizes.astype(np.int64)
