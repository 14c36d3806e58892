"""Simulated backend data store (the paper's storage server).

The testbed backend is a 1 TB 7,200 RPM hard drive reached over 10 GbE. Here
it is a latency model plus a deterministic content generator: object payloads
are derived from ``(name, version)`` with a seeded RNG, so the store never
holds gigabytes in memory yet every read returns stable, verifiable bytes —
and a write-back flush visibly bumps the version.

The store is a single spindle: requests serialize through ``busy_until``, so
when the cache collapses (the paper's device-failure scenarios) the miss
traffic overloads the backend and latency balloons — the behaviour §I calls
out as the systemic risk of cache failures.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import ObjectNotFoundError
from repro.flash.latency import HDD_7200RPM, NETWORK_10GBE, ServiceTimeModel
from repro.sim.clock import SimClock

__all__ = ["BackendStore"]


def _seed_for(name: str, version: int) -> int:
    """Stable 64-bit seed from an object name and version."""
    digest = zlib.crc32(name.encode("utf-8"))
    return (digest << 32) ^ (version & 0xFFFFFFFF)


@dataclass
class _CatalogEntry:
    size: int
    version: int = 0


class BackendStore:
    """Deterministic, latency-modelled backend object store."""

    def __init__(
        self,
        clock: SimClock,
        model: Optional[ServiceTimeModel] = None,
    ) -> None:
        self.clock = clock
        #: HDD behind one network hop, matching the testbed topology.
        self.model = model or HDD_7200RPM.combine(NETWORK_10GBE)
        self._catalog: Dict[str, _CatalogEntry] = {}
        self.busy_until = 0.0
        self.reads = 0
        self.writes = 0
        self.bytes_read = 0
        self.bytes_written = 0
        #: Per-object read counts — the signal a Bonfire-style warm-up
        #: advisor monitors on the storage server.
        self.access_counts: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Catalog
    # ------------------------------------------------------------------
    def register(self, name: str, size: int) -> None:
        """Declare an object in the backend data set."""
        if size < 0:
            raise ValueError("object size cannot be negative")
        self._catalog[name] = _CatalogEntry(size=size)

    def __contains__(self, name: str) -> bool:
        return name in self._catalog

    def __len__(self) -> int:
        return len(self._catalog)

    def size_of(self, name: str) -> int:
        return self._entry(name).size

    def version_of(self, name: str) -> int:
        return self._entry(name).version

    @property
    def total_bytes(self) -> int:
        return sum(entry.size for entry in self._catalog.values())

    # ------------------------------------------------------------------
    # Content
    # ------------------------------------------------------------------
    def payload_for(self, name: str, version: int) -> bytes:
        """Content of ``name`` at a given version (no latency, no state).

        Client writes in the simulation produce deterministic content: the
        cache manager picks the next version, obtains its bytes here, and
        flushes them back later with :meth:`write`; a subsequent backend read
        then regenerates exactly those bytes.
        """
        entry = self._entry(name)
        return self._generate(name, version, entry.size)

    @staticmethod
    def _generate(name: str, version: int, size: int) -> bytes:
        # Raw 64-bit words straight from the PCG64 bit generator (the one
        # ``default_rng`` wraps), eight payload bytes per draw, little-endian
        # so the content is the same on every host.
        words = np.random.PCG64(_seed_for(name, version)).random_raw((size + 7) // 8)
        return words.astype("<u8", copy=False).view(np.uint8)[:size].tobytes()

    # ------------------------------------------------------------------
    # I/O with simulated latency
    # ------------------------------------------------------------------
    def read(self, name: str) -> Tuple[bytes, float]:
        """Fetch an object; returns ``(payload, simulated latency)``.

        Latency includes queueing behind earlier backend requests.
        """
        entry = self._entry(name)
        payload = self._generate(name, entry.version, entry.size)
        elapsed = self._submit(self.model.read_time(entry.size))
        self.reads += 1
        self.bytes_read += entry.size
        self.access_counts[name] = self.access_counts.get(name, 0) + 1
        return payload, elapsed

    def write(self, name: str, payload: bytes, version: Optional[int] = None) -> float:
        """Flush an object back (write-back sync).

        The payload is not retained — only its size and version — because
        reads regenerate content deterministically. When the caller tracks
        versions (the cache manager does), passing ``version`` makes a later
        backend read return exactly the flushed bytes; without it the version
        is simply bumped.
        """
        entry = self._catalog.get(name)
        if entry is None:
            self._catalog[name] = entry = _CatalogEntry(size=len(payload))
        entry.size = len(payload)
        entry.version = entry.version + 1 if version is None else version
        elapsed = self._submit(self.model.write_time(len(payload)))
        self.writes += 1
        self.bytes_written += len(payload)
        return elapsed

    def _submit(self, service_time: float) -> float:
        start = self.clock.now
        begin = max(start, self.busy_until)
        completion = begin + service_time
        self.busy_until = completion
        return completion - start

    def _entry(self, name: str) -> _CatalogEntry:
        try:
            return self._catalog[name]
        except KeyError:
            raise ObjectNotFoundError(f"backend has no object {name!r}") from None
