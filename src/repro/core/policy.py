"""Redundancy policies: class→scheme maps (paper §IV-C.4 and §VI-A).

A policy is the single point where Reo and its baselines differ. The target
calls the policy with an object's class id and gets back the
:class:`~repro.flash.stripe.RedundancyScheme` to encode it with:

- :class:`ReoPolicy` — the paper's differentiated map: metadata and dirty
  objects are fully replicated, hot clean objects get 2-parity stripes, cold
  clean objects get no redundancy. Carries the reserved parity fraction
  (Reo-10% / Reo-20% / Reo-40%).
- :class:`UniformPolicy` — the evaluation's baselines: the same scheme for
  every class (0-parity, 1-parity, 2-parity, or full replication).

The module also holds the one **class table** the failure plane reads:
:data:`CLASS_LAYOUT` (how the shard tier lays a class out across shards,
with :data:`MIRROR_WIDTH` and :data:`SHARD_STRIPE` its two widths),
:data:`PROTECTED_CLASSES` (classes that carry redundancy, so losing one of
their objects is a durability failure, not a cache miss) and
:data:`RECOVERY_ORDER` (§IV-D: rebuild class 0, then 1, 2, 3). The layout
and both class tuples are derived once, at import, from
:meth:`ReoPolicy.scheme_for`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core.classes import ObjectClass
from repro.flash.stripe import ParityScheme, RedundancyScheme, ReplicationScheme

__all__ = [
    "CLASS_LAYOUT",
    "MIRROR_WIDTH",
    "PROTECTED_CLASSES",
    "RECOVERY_ORDER",
    "SHARD_STRIPE",
    "RedundancyPolicy",
    "ReoPolicy",
    "UniformPolicy",
    "full_replication",
    "reo_policy",
    "uniform_parity",
]


class RedundancyPolicy:
    """Maps a Reo class id to a redundancy scheme.

    Policies are callable so an :class:`~repro.osd.target.OsdTarget` can use
    one directly as its ``scheme_for`` hook.
    """

    #: Display name used in experiment reports.
    name: str = "abstract"
    #: Fraction of flash reserved for redundancy; None disables budgeting.
    reserve_fraction: "float | None" = None

    def scheme_for(self, class_id: int) -> RedundancyScheme:
        raise NotImplementedError

    def __call__(self, class_id: int) -> RedundancyScheme:
        return self.scheme_for(class_id)

    @property
    def differentiates(self) -> bool:
        """True when different classes can receive different schemes."""
        schemes = {self.scheme_for(class_id) for class_id in ObjectClass}
        return len(schemes) > 1


@dataclass(frozen=True)
class UniformPolicy(RedundancyPolicy):
    """One scheme for every object, regardless of class (the baselines)."""

    scheme: RedundancyScheme

    @property
    def name(self) -> str:
        return self.scheme.name

    def scheme_for(self, class_id: int) -> RedundancyScheme:
        return self.scheme


@dataclass(frozen=True)
class ReoPolicy(RedundancyPolicy):
    """The paper's differentiated class→scheme map.

    Attributes:
        reserve_fraction: flash fraction reserved for redundancy overhead —
            0.1, 0.2, and 0.4 give the paper's Reo-10%, Reo-20%, Reo-40%.
        hot_parity: parity chunks per stripe for hot clean objects (2 in the
            paper, "which ensures that they can survive no more than two
            device failures").
    """

    reserve_fraction: float = 0.10
    hot_parity: int = 2

    def __post_init__(self) -> None:
        if not 0.0 < self.reserve_fraction <= 1.0:
            raise ValueError("reserve fraction must be in (0, 1]")
        if self.hot_parity < 0:
            raise ValueError("hot parity cannot be negative")
        # The three schemes are immutable values: built once, handed out on
        # every admission (not fields, so equality and hashing ignore them).
        object.__setattr__(self, "_replicated", ReplicationScheme())
        object.__setattr__(self, "_hot", ParityScheme(self.hot_parity))
        object.__setattr__(self, "_cold", ParityScheme(0))

    @property
    def name(self) -> str:
        return f"Reo-{round(self.reserve_fraction * 100)}%"

    def scheme_for(self, class_id: int) -> RedundancyScheme:
        if class_id in (ObjectClass.METADATA, ObjectClass.DIRTY):
            return self._replicated
        if class_id == ObjectClass.HOT_CLEAN:
            return self._hot
        return self._cold


def uniform_parity(parity: int) -> UniformPolicy:
    """The 0/1/2-parity uniform baselines of §VI-A."""
    return UniformPolicy(ParityScheme(parity))


def full_replication() -> UniformPolicy:
    """The full-replication baseline of §VI-D."""
    return UniformPolicy(ReplicationScheme())


def reo_policy(reserve_fraction: float = 0.10, hot_parity: int = 2) -> ReoPolicy:
    """Reo with the given reserved redundancy fraction (0.1/0.2/0.4)."""
    return ReoPolicy(reserve_fraction=reserve_fraction, hot_parity=hot_parity)


def _shard_layout(scheme: RedundancyScheme) -> str:
    if isinstance(scheme, ReplicationScheme):
        return "mirror"
    if isinstance(scheme, ParityScheme) and scheme.parity > 0:
        return "stripe"
    return "plain"


#: Class id → shard-tier layout: a replicated class is mirrored on its top
#: :data:`MIRROR_WIDTH` HRW shards, a parity-protected class is RS-striped
#: across shards, a class with no redundancy is one plain copy. A plain dict
#: so the router's per-write dispatch stays one constant-time probe.
CLASS_LAYOUT: Dict[int, str] = {
    int(class_id): _shard_layout(ReoPolicy().scheme_for(class_id))
    for class_id in ObjectClass
}
#: Copies of a mirrored class across shards: the primary and one mirror.
MIRROR_WIDTH = 2
#: RS geometry ``(k, m)`` of a striped class across shards: four data
#: fragments and the hot-clean parity of :class:`ReoPolicy`.
SHARD_STRIPE = (4, ReoPolicy().hot_parity)
#: Classes whose loss fails a campaign (metadata, dirty, hot clean).
PROTECTED_CLASSES = tuple(
    class_id for class_id, layout in CLASS_LAYOUT.items() if layout != "plain"
)
#: Differentiated recovery: most important class first.
RECOVERY_ORDER = tuple(sorted(CLASS_LAYOUT))
