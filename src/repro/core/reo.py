"""The :class:`ReoCache` facade: the paper's full stack in one object.

Wires together the simulated flash array, the OSD target (with a redundancy
policy), the initiator, the backend store, the cache manager, and the
recovery manager — sharing one simulated clock — and exposes the small
surface the examples, tests, and benchmark harness drive:

>>> cache = ReoCache.build(policy=reo_policy(0.20), cache_bytes=64 << 20)
>>> cache.register_objects({"video-1": 4 << 20})
>>> result = cache.read("video-1")          # miss, fetched from backend
>>> cache.read("video-1").hit
True
>>> cache.fail_device(0)                     # shootdown
>>> cache.replace_device(0)                  # insert spare
>>> cache.recovery.start().pending >= 0
True
"""

from __future__ import annotations

import math
from typing import Dict, Optional

from repro.backend.store import BackendStore
from repro.cache.manager import AccessResult, CacheManager
from repro.cache.policies import make_eviction_policy
from repro.cache.stats import CacheStats
from repro.core.health import HealthMonitor, HealthPolicy
from repro.core.hotness import HotnessTracker
from repro.core.policy import RedundancyPolicy, reo_policy
from repro.core.recovery import RecoveryManager
from repro.core.redundancy import RedundancyBudget
from repro.core.supervisor import RecoverySupervisor
from repro.flash.array import FlashArray
from repro.flash.latency import INTEL_540S_SSD, ServiceTimeModel
from repro.osd.exofs import format_volume
from repro.osd.initiator import OsdInitiator
from repro.osd.target import OsdTarget
from repro.sim.clock import SimClock
from repro.units import KiB

__all__ = ["ReoCache"]


class ReoCache:
    """A reliable, efficient, object-based flash cache (the paper's Reo)."""

    def __init__(
        self,
        array: FlashArray,
        target: OsdTarget,
        initiator: OsdInitiator,
        backend: BackendStore,
        manager: CacheManager,
        recovery: RecoveryManager,
        policy: RedundancyPolicy,
    ) -> None:
        self.array = array
        self.target = target
        self.initiator = initiator
        self.backend = backend
        self.manager = manager
        self.recovery = recovery
        self.policy = policy
        #: Optional closed-loop fault handling; see :meth:`enable_supervision`.
        self.supervisor: "RecoverySupervisor | None" = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        policy: Optional[RedundancyPolicy] = None,
        num_devices: int = 5,
        cache_bytes: int = 512 * 1024 * 1024,
        chunk_size: int = 64 * KiB,
        device_model: ServiceTimeModel = INTEL_540S_SSD,
        backend_model: Optional[ServiceTimeModel] = None,
        reclassify_interval: int = 1000,
        hotness_size_exponent: float = 1.0,
        prioritized_recovery: bool = True,
        eviction_policy: str = "lru",
        backend: Optional[BackendStore] = None,
    ) -> "ReoCache":
        """Assemble a complete cache stack.

        Args:
            policy: class→scheme map; defaults to Reo-10%.
            num_devices: flash devices in the array (the paper uses five).
            cache_bytes: total raw flash capacity across all devices.
            chunk_size: stripe chunk size (64 KB in Figs. 5-7/9, 1 MB in
                Fig. 8).
            device_model: SSD service-time model.
            backend_model: backend service-time model (HDD + network hop if
                omitted).
            reclassify_interval: reads between ``H_hot`` recomputations.
        """
        policy = policy or reo_policy(0.10)
        clock = SimClock()
        device_capacity = max(1, math.ceil(cache_bytes / num_devices))
        array = FlashArray(
            num_devices=num_devices,
            device_capacity=device_capacity,
            chunk_size=chunk_size,
            clock=clock,
            model=device_model,
        )
        target = OsdTarget(array, policy=policy)
        format_volume(target)
        initiator = OsdInitiator(target)
        if backend is None:
            backend = BackendStore(clock=clock, model=backend_model)
        else:
            # Shared storage server (e.g. a cache-server restart scenario):
            # keep a single timeline across the stacks.
            backend.clock = clock
        budget = (
            RedundancyBudget(array, policy)
            if policy.reserve_fraction is not None
            else None
        )
        manager = CacheManager(
            initiator=initiator,
            backend=backend,
            budget=budget,
            hotness=HotnessTracker(size_exponent=hotness_size_exponent),
            reclassify_interval=reclassify_interval,
            eviction=make_eviction_policy(eviction_policy),
        )
        recovery = RecoveryManager(
            target, cache_manager=manager, prioritized=prioritized_recovery
        )
        return cls(array, target, initiator, backend, manager, recovery, policy)

    # ------------------------------------------------------------------
    # Data set
    # ------------------------------------------------------------------
    def register_objects(self, catalog: Dict[str, int]) -> None:
        """Declare the backend data set (object name → size in bytes)."""
        for name, size in catalog.items():
            self.backend.register(name, size)

    # ------------------------------------------------------------------
    # Client interface
    # ------------------------------------------------------------------
    def read(self, name: str) -> AccessResult:
        """Read an object through the cache (miss fetches from backend)."""
        return self.manager.read(name)

    def write(self, name: str) -> AccessResult:
        """Write an object (write-back: lands in cache as dirty)."""
        return self.manager.write(name)

    def flush(self) -> int:
        """Synchronize all dirty objects to the backend."""
        return self.manager.flush_all()

    # ------------------------------------------------------------------
    # Failure lifecycle
    # ------------------------------------------------------------------
    def fail_device(self, device_id: int) -> None:
        """Shoot down a device (the paper's emulated failure)."""
        self.array.fail_device(device_id)

    def replace_device(self, device_id: int) -> None:
        """Insert a fresh spare into a failed slot."""
        self.array.replace_device(device_id)

    def scrub(self):
        """Verify every stored chunk and repair silent corruption in place.

        Objects beyond repair are purged like the supervised scrub purges
        them (:meth:`~repro.cache.manager.CacheManager.drop_lost`); cached
        ones remain intact in the backend, so the next access refetches
        them. Returns the :class:`~repro.flash.array.ScrubReport`.
        """
        report = self.array.scrub()
        for key in report.unrecoverable_objects:
            self.manager.drop_lost(key)
        return report

    def enable_supervision(
        self,
        health_policy: "Optional[HealthPolicy]" = None,
        spares: int = 1,
        scrub_interval: float = 300.0,
        injector: "object | None" = None,
    ) -> RecoverySupervisor:
        """Turn on the closed detect→repair loop.

        Attaches a :class:`~repro.core.health.HealthMonitor` to the array
        (every finished I/O batch feeds it) and a
        :class:`~repro.core.supervisor.RecoverySupervisor` that reacts to
        its verdicts: failing sick devices, swapping spares, starting
        class-ordered reconstruction, and scheduling prioritized scrubs.
        The experiment runner polls the supervisor between requests and
        grants it the idle gaps.

        Args:
            health_policy: detection thresholds (defaults are conservative).
            spares: replacement devices available for auto-swap.
            scrub_interval: simulated seconds between full scrub sweeps.
            injector: optional :class:`~repro.faults.FaultInjector` whose
                timed events the supervisor's poll should fire.
        """
        monitor = HealthMonitor(self.array, policy=health_policy)
        self.supervisor = RecoverySupervisor(
            self,
            monitor=monitor,
            injector=injector,
            spares=spares,
            scrub_interval=scrub_interval,
        )
        return self.supervisor

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def clock(self) -> SimClock:
        return self.array.clock

    @property
    def stats(self) -> CacheStats:
        return self.manager.stats

    @property
    def hit_ratio(self) -> float:
        return self.stats.hit_ratio

    @property
    def space_efficiency(self) -> float:
        """User data as a fraction of occupied flash (paper §VI-B)."""
        return self.array.space_efficiency

    def __repr__(self) -> str:
        return (
            f"ReoCache(policy={self.policy.name}, objects={len(self.manager)}, "
            f"hit_ratio={self.hit_ratio:.3f})"
        )
