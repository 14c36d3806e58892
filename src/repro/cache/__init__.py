"""Object-based cache manager substrate (paper §V, initiator side)."""

from repro.cache.manager import AccessResult, CacheManager, CachedObject
from repro.cache.stats import CacheStats

__all__ = ["AccessResult", "CacheManager", "CachedObject", "CacheStats"]
