"""Parity-budget accounting for differentiated redundancy (paper §IV-C.1).

Reo-X% reserves X% of the flash space for redundancy information. The budget
manager watches the array's live accounting and answers two questions:

- how many redundancy bytes remain for promoting clean objects to the hot
  scheme (metadata and dirty replicas are mandatory and are charged first);
- whether the reserve is exhausted — surfaced to initiators as sense 0x67.

The :class:`~repro.osd.target.OsdTarget` whose policy declares a reserve owns
its budget.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.core.classes import ObjectClass
from repro.core.policy import RedundancyPolicy
from repro.errors import StripeLayoutError
from repro.flash.array import FlashArray

if TYPE_CHECKING:  # repro.osd imports this module through the target
    from repro.osd.types import ObjectInfo

__all__ = ["RedundancyBudget"]

#: Classes whose redundancy is mandatory, charged to the reserve first.
_MANDATORY = (int(ObjectClass.METADATA), int(ObjectClass.DIRTY))


class RedundancyBudget:
    """Tracks the reserved redundancy space of an array under a policy.

    ``policy`` must declare a ``reserve_fraction``; a target whose policy
    declares none builds no budget.
    """

    def __init__(self, array: FlashArray, policy: RedundancyPolicy) -> None:
        self.array = array
        self.policy = policy

    @property
    def budget_bytes(self) -> float:
        """The reserve, against the *online* capacity (shrinks on failures)."""
        return self.policy.reserve_fraction * self.array.capacity_bytes

    @property
    def used_bytes(self) -> int:
        """Redundancy bytes currently stored (parity + replicas)."""
        return self.array.redundancy_bytes

    @property
    def available_bytes(self) -> float:
        return max(0.0, self.budget_bytes - self.used_bytes)

    @property
    def is_full(self) -> bool:
        return self.used_bytes >= self.budget_bytes

    def hot_overhead_per_byte(self) -> float:
        """Extra stored bytes per logical byte of a hot-class object.

        E.g. 2-parity stripes on a five-wide array store 5/3 bytes per byte,
        an overhead of 2/3.
        """
        width = self.array.online_count
        scheme = self.policy.scheme_for(ObjectClass.HOT_CLEAN)
        try:
            return scheme.storage_multiplier(width) - 1.0
        except StripeLayoutError:
            # Scheme infeasible at this width (e.g. 2-parity on 2 devices).
            # Anything else — injected faults included — must propagate.
            return float("inf")

    def can_afford_hot(self, size: int) -> bool:
        """Would promoting ``size`` logical bytes stay inside the reserve?"""
        return size * self.hot_overhead_per_byte() <= self.available_bytes

    def mandatory_bytes(self, objects: Iterable[ObjectInfo]) -> int:
        """Redundancy held by the mandatory classes among ``objects``."""
        return sum(
            self.array.get_extent(info.object_id).redundancy_bytes
            for info in objects
            if info.class_id in _MANDATORY and info.object_id in self.array
        )

    def __repr__(self) -> str:
        return (
            f"RedundancyBudget(budget={self.budget_bytes:.0f}, "
            f"used={self.used_bytes}, full={self.is_full})"
        )
