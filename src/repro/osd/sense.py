"""Sense codes returned by the OSD target (paper Table III)."""

from __future__ import annotations

import enum

__all__ = ["SenseCode"]


class SenseCode(enum.IntEnum):
    """Status vocabulary between the object storage and the cache manager.

    Values match the paper's Table III exactly.
    """

    #: The command is successful.
    OK = 0x0
    #: The command is unsuccessful.
    FAIL = -0x1
    #: Data is corrupted.
    DATA_CORRUPTED = 0x63
    #: The cache is full, demanding a cache replacement.
    CACHE_FULL = 0x64
    #: Recovery starts.
    RECOVERY_STARTED = 0x65
    #: Recovery ends.
    RECOVERY_ENDED = 0x66
    #: The allocated space for data redundancy is full.
    REDUNDANCY_FULL = 0x67

    # -- Service-layer extension (repro.net) -------------------------------
    # The paper's Table III stops at 0x67; the networked service tier keeps
    # its error channel in the same vocabulary rather than inventing a second
    # mechanism, so overload and misroutes surface to initiators as sense
    # data on a healthy connection instead of dropped sockets.

    #: The server is at its in-flight capacity; retry after backoff.
    SERVER_BUSY = 0x68
    #: The addressed shard does not own this object under the current
    #: cluster map; the reply carries the shard's map (JSON payload) so the
    #: initiator can refresh its routing and replay. Like ``SERVER_BUSY``,
    #: this code means the command *did not execute*, so re-routing is safe
    #: even for non-idempotent commands.
    WRONG_SHARD = 0x6A

    def describe(self) -> str:
        """The paper's textual description of this code."""
        return _DESCRIPTIONS[self]


_DESCRIPTIONS = {
    SenseCode.OK: "The command is successful",
    SenseCode.FAIL: "The command is unsuccessful",
    SenseCode.DATA_CORRUPTED: "Data is corrupted",
    SenseCode.CACHE_FULL: "The cache is full",
    SenseCode.RECOVERY_STARTED: "Recovery starts",
    SenseCode.RECOVERY_ENDED: "Recovery ends",
    SenseCode.REDUNDANCY_FULL: "The allocated space for data redundancy is full",
    SenseCode.SERVER_BUSY: "The server is overloaded; retry after backoff",
    SenseCode.WRONG_SHARD: "Another shard owns this object under the current cluster map",
}
