"""Retry policy for the async initiator: exponential backoff with jitter.

Only *idempotent* commands are retried. Re-sending a command whose first
attempt may have already executed is safe exactly when executing it twice
leaves the target in the same state and returns the same answer:

- ``Read``, ``GetAttr`` (the class label) and ``ListPartition`` never
  mutate anything;
- ``Write`` is a whole-object overwrite and ``Update`` rewrites the same
  byte range with the same bytes — replaying either converges to the
  identical state;
- ``CreatePartition``/``Remove`` are NOT idempotent: a
  replay after a success that the client never saw answers ``FAIL``
  (already exists / already gone), which would surface a phantom error.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.osd import commands

__all__ = ["IDEMPOTENT_COMMANDS", "RetryPolicy", "is_idempotent"]

#: Retry ``n`` (0-based) waits ``d = min(MAX_DELAY_S, BASE_DELAY_S *
#: MULTIPLIER**n)`` seconds less a uniform ``[0, JITTER]`` share of ``d``.
BASE_DELAY_S = 0.02
MULTIPLIER = 2.0
MAX_DELAY_S = 1.0
JITTER = 0.5

IDEMPOTENT_COMMANDS = (
    commands.Read,
    commands.Write,
    commands.Update,
    commands.GetAttr,
    commands.ListPartition,
)


def is_idempotent(command: commands.OsdCommand) -> bool:
    """True when re-sending ``command`` after an ambiguous failure is safe."""
    return isinstance(command, IDEMPOTENT_COMMANDS)


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with jitter (see :data:`BASE_DELAY_S`).

    Jitter spreads synchronized retry storms from many clients hitting one
    overloaded server; ``seed`` makes it reproducible.
    """

    max_attempts: int = 3
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    def delays(self) -> Iterator[float]:
        """Backoff delays between attempts (``max_attempts - 1`` of them)."""
        rng = random.Random(self.seed)
        for attempt in range(self.max_attempts - 1):
            delay = min(MAX_DELAY_S, BASE_DELAY_S * MULTIPLIER**attempt)
            yield delay * (1.0 - JITTER * rng.random())


#: Retry disabled: one attempt, surface the first failure.
NO_RETRY = RetryPolicy(max_attempts=1)
