"""Seeded inputs the benchmark owns: the replay trace and the payload oracle.

Nothing here imports the repo's own generators (``repro.workload.medisyn``,
``repro.net.loadgen``), so a later change to those cannot move the inputs.
The same seed always yields the same trace and the same payload bytes.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Tuple

import numpy as np

from repro.workload.trace import Trace, TraceRecord

#: Catalogue the simulated workloads replay: Zipf(0.9) popularity over 4,000
#: objects, lognormal sizes with a 44 KB mean (the paper's 4.4 MB / 100).
SIM_OBJECTS = 4000
CATALOG_SEED = 20190707
ZIPF_ALPHA = 0.9
MEAN_OBJECT_BYTES = 44_000
SIZE_SIGMA = 1.0
MIN_OBJECT_BYTES = 1024
MAX_OBJECT_BYTES = 1 << 20

#: Bytes of seeded noise every payload is a slice of.
POOL_BYTES = 1 << 20


def zipf_trace(
    seed: int, requests: int, write_share: float, objects: int = SIM_OBJECTS
) -> Tuple[Dict[str, int], List[TraceRecord]]:
    """The catalogue (name → size) and the request stream for ``seed``.

    The catalogue — sizes and which objects are popular — and how often each
    object is requested belong to the workload and are the same for every
    seed; the seed draws the *order* of the requests and which of them are
    writes. With Zipf(0.9) some hundred objects carry most requests, so
    sampling sizes or request counts per seed moves the bytes a run
    requests, and with them every timing, by over ten percent from seed to
    seed — more than most changes the benchmark is meant to resolve.
    """
    population = np.random.default_rng(CATALOG_SEED)
    mu = math.log(MEAN_OBJECT_BYTES) - SIZE_SIGMA * SIZE_SIGMA / 2.0
    sizes = np.clip(
        population.lognormal(mu, SIZE_SIGMA, objects), MIN_OBJECT_BYTES, MAX_OBJECT_BYTES
    ).astype(np.int64)
    # Popularity rank is independent of size and of the object's name.
    by_rank = population.permutation(objects)
    weights = np.arange(1, objects + 1, dtype=np.float64) ** -ZIPF_ALPHA
    shares = requests * weights / weights.sum()
    counts = np.floor(shares).astype(np.int64)
    # Largest remainders make the counts add up to the request total.
    short = requests - int(counts.sum())
    counts[np.argsort(counts - shares, kind="stable")[:short]] += 1
    picks = np.repeat(by_rank, counts)
    writes = np.zeros(requests, dtype=bool)
    writes[: int(round(requests * write_share))] = True
    rng = np.random.default_rng(seed)
    rng.shuffle(picks)
    rng.shuffle(writes)
    names = [f"obj-{index:05d}" for index in range(objects)]
    catalog = {names[index]: int(sizes[index]) for index in range(objects)}
    records = [
        TraceRecord(names[index], bool(is_write))
        for index, is_write in zip(picks.tolist(), writes.tolist())
    ]
    return catalog, records


def split_trace(
    catalog: Dict[str, int], records: List[TraceRecord], warmup: int
) -> Tuple[Trace, Trace]:
    """The unrecorded warm-up prefix and the measured remainder."""
    return (
        Trace("perf-warmup", catalog, records[:warmup]),
        Trace("perf-measured", catalog, records[warmup:]),
    )


class PayloadOracle:
    """Payload content as a pure function of (seed, object index, version).

    Every payload is a slice of one seeded noise pool, so producing the
    bytes of a write and checking the bytes of a read cost a slice and a
    compare: nothing is generated inside the measured window.
    """

    def __init__(self, seed: int, max_size: int) -> None:
        self._pool = random.Random(f"perf-payload/{seed}").randbytes(POOL_BYTES + max_size)
        self._view = memoryview(self._pool)

    @staticmethod
    def _offset(index: int, version: int) -> int:
        return ((index * 0x9E3779B1 + version * 0x85EBCA6B) & 0xFFFFFFFF) % POOL_BYTES

    def expected(self, index: int, version: int, size: int) -> memoryview:
        """The bytes object ``index`` must hold at ``version`` (no copy)."""
        offset = self._offset(index, version)
        return self._view[offset : offset + size]

    def payload(self, index: int, version: int, size: int) -> bytes:
        """The bytes to write for object ``index`` at ``version``."""
        offset = self._offset(index, version)
        return self._pool[offset : offset + size]

    def matches(self, data: object, index: int, version: int, size: int) -> bool:
        """Whether a read returned exactly the expected bytes."""
        return data is not None and data == self.expected(index, version, size)
