"""Fixtures for the sharded-cluster tests.

Every test in this package is marked ``cluster`` (see ``pyproject.toml``)
and runs under the same SIGALRM watchdog as the socket-layer tests: a
wedged event loop, a half-open shard socket, or a redirect loop fails the
test instead of hanging the whole tier-1 run. Override the default budget
per test with ``@pytest.mark.cluster(timeout=N)``.
"""

import signal

import pytest

from repro.cluster import placement

DEFAULT_TIMEOUT_SECONDS = 60


@pytest.fixture(autouse=True)
def cluster_watchdog(request):
    """Hard per-test timeout for ``cluster``-marked tests (SIGALRM, Unix only)."""
    marker = request.node.get_closest_marker("cluster")
    if marker is None or not hasattr(signal, "SIGALRM"):
        yield
        return
    seconds = int(marker.kwargs.get("timeout", DEFAULT_TIMEOUT_SECONDS))

    def _expired(_signum, _frame):
        pytest.fail(
            f"cluster test exceeded its {seconds}s watchdog — "
            "probable hang in the router or a shard server"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def scores(monkeypatch):
    """The shard id of every ``rendezvous_score`` call, from an empty memo.

    The count gate of "placement is a lookup": a ranking costs one score per
    eligible shard, a memo hit none.
    """
    calls = []
    real = placement.rendezvous_score

    def counted(object_id, shard_id):
        calls.append(shard_id)
        return real(object_id, shard_id)

    monkeypatch.setattr(placement, "rendezvous_score", counted)
    placement.ranking.cache_clear()
    return calls
