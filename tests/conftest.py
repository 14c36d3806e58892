"""Shared test fixtures and builders, and the ``deep`` Hypothesis profile."""

import pytest
from hypothesis import settings

from repro.core.policy import reo_policy
from repro.core.reo import ReoCache
from repro.flash.latency import ZERO_COST

#: How many times its usual examples a property test runs under ``deep``.
DEEP_EXAMPLES = 5

#: ``--hypothesis-profile=deep``: every property test runs ``DEEP_EXAMPLES``
#: times the examples it runs by default (CI runs ``tests/flash`` this way).
#: The default profile is Hypothesis's own.
settings.register_profile("deep", deadline=None)


def pytest_collection_modifyitems(items):
    """Scale each property test's own ``max_examples`` under the deep profile.

    A ``@settings(max_examples=...)`` decorator outranks any profile, so the
    profile cannot scale it; this does, once per test function.
    """
    if settings.default is not settings.get_profile("deep"):
        return
    scaled = set()
    for item in items:
        test = getattr(item, "function", None)
        if not getattr(test, "is_hypothesis_test", False) or id(test) in scaled:
            continue
        scaled.add(id(test))
        own = test._hypothesis_internal_use_settings
        test._hypothesis_internal_use_settings = settings(
            own, max_examples=DEEP_EXAMPLES * own.max_examples
        )


def build_cache(
    policy=None,
    cache_bytes=100_000,
    chunk_size=64,
    num_devices=5,
    reclassify_interval=50,
    zero_cost=True,
    backend_model=None,
):
    """A small, fast cache stack for logic-level tests.

    ``zero_cost`` swaps the device model for free I/O so tests assert on
    behaviour rather than timing.
    """
    kwargs = {}
    if zero_cost:
        kwargs["device_model"] = ZERO_COST
        kwargs["backend_model"] = backend_model or ZERO_COST
    elif backend_model is not None:
        kwargs["backend_model"] = backend_model
    return ReoCache.build(
        policy=policy or reo_policy(0.20),
        num_devices=num_devices,
        cache_bytes=cache_bytes,
        chunk_size=chunk_size,
        reclassify_interval=reclassify_interval,
        **kwargs,
    )


def register_uniform_objects(cache, count, size, prefix="obj"):
    """Register ``count`` equal-size objects; returns their names."""
    names = [f"{prefix}-{index}" for index in range(count)]
    cache.register_objects({name: size for name in names})
    return names


@pytest.fixture
def small_cache():
    """A Reo-20% cache of 100 KB with 50 registered 2 KB objects."""
    cache = build_cache()
    register_uniform_objects(cache, 50, 2_000)
    return cache
