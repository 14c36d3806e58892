"""Retry policy: backoff bounds, jitter determinism, idempotency rules."""

import pytest

from repro.net.retry import (
    BASE_DELAY_S,
    JITTER,
    MAX_DELAY_S,
    MULTIPLIER,
    NO_RETRY,
    RetryPolicy,
    is_idempotent,
)
from repro.osd import commands
from repro.osd.types import PARTITION_BASE, ObjectId

pytestmark = pytest.mark.net

OID = ObjectId(PARTITION_BASE, 0x10005)


class TestRetryPolicy:
    def test_delay_count_is_attempts_minus_one(self):
        policy = RetryPolicy(max_attempts=4)
        assert len(list(policy.delays())) == 3

    def test_exponential_growth_capped(self):
        # 20 ms, doubling, capped at 1 s: 20, 40, ..., 640 ms, then 1 s.
        assert (BASE_DELAY_S, MULTIPLIER, MAX_DELAY_S) == (0.02, 2.0, 1.0)
        ceilings = [0.02, 0.04, 0.08, 0.16, 0.32, 0.64, 1.0, 1.0]
        delays = list(RetryPolicy(max_attempts=len(ceilings) + 1, seed=3).delays())
        for delay, ceiling in zip(delays, ceilings):
            assert ceiling * (1.0 - JITTER) <= delay <= ceiling
        assert max(delays) <= MAX_DELAY_S

    def test_jitter_stays_within_band_and_is_seeded(self):
        assert JITTER == 0.5
        policy = RetryPolicy(max_attempts=6, seed=42)
        first = list(policy.delays())
        second = list(policy.delays())
        assert first == second  # seeded jitter is reproducible
        assert first != list(RetryPolicy(max_attempts=6, seed=43).delays())
        for attempt, jittered in enumerate(first):
            full = BASE_DELAY_S * MULTIPLIER**attempt
            assert full * 0.5 <= jittered <= full

    def test_no_retry_policy(self):
        assert NO_RETRY.max_attempts == 1
        assert list(NO_RETRY.delays()) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)


class TestIdempotency:
    def test_safe_commands(self):
        for command in (
            commands.Read(OID),
            commands.Write(OID, b"same bytes", 3),
            commands.Update(OID, 8, b"same bytes"),
            commands.GetAttr(OID),
            commands.ListPartition(PARTITION_BASE),
        ):
            assert is_idempotent(command)

    def test_unsafe_commands(self):
        for command in (
            commands.CreatePartition(PARTITION_BASE),
            commands.Remove(OID),
        ):
            assert not is_idempotent(command)
