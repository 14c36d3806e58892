"""What one run of one workload produced."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List


#: Most the CPU per op may rise under tracing beyond what the fall in the rate
#: explains, in percent, before the traced run prints a warning. Not a failure:
#: the gap is the ratio of the two windows' CPU utilisations, and when the host
#: takes the vCPU away for part of the untraced window the same commit reads +6%.
MAX_RECONCILE_GAP_PCT = 5.0


def steady(values: Iterable[float], better: str) -> float:
    """The value a tenth of the repeated measurements reach or beat.

    The slices of a window and the repetitions of a replay do the same kind
    of work many times. What disturbs them on the reference box — a
    neighbour on the host taking the sibling hyperthread or the cache, in
    bursts of 0.1-2 s that slow the work by 1.6-2x, a tenth to a third of
    the time — only ever makes one slower, so the fast end of the
    distribution is the estimate of the undisturbed system (the reasoning
    behind ``timeit``'s minimum). The ninth decile and not the maximum,
    because slices differ a little in the ops they hold. With fewer than
    ten values it is the best one. A regression, or a periodic stall the
    system causes itself, is in every slice and every repetition, and so
    in this figure too. Over six back-to-back runs of ``net_small`` in a
    noisy hour the whole-window rate ranged 17%, the best 2 s slice 10%,
    this figure over 0.25 s slices 6%.
    """
    ordered = sorted(values, reverse=(better == "lower"))
    return ordered[min(len(ordered) - 1, int(0.9 * len(ordered)))]


@dataclass
class Measurement:
    workload: str
    attempted: int = 0
    failed: int = 0
    #: Reasons the run is not a valid measurement (corruption, a failed op,
    #: a late generator, simulated results that differ between repetitions).
    problems: List[str] = field(default_factory=list)
    #: Metric name → value; end-to-end metrics of an untraced run, or the
    #: per-layer metrics of a traced one.
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Printable extras: the per-layer budget tables of a traced run.
    notes: List[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0 and self.attempted > 0
