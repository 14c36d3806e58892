"""Per-device health monitoring and failure detection.

Real arrays do not get a courtesy call when a device starts dying: they
*infer* failure from the I/O stream. This module watches every
:class:`~repro.flash.array.ArrayIoResult` the array produces (the array
feeds its :attr:`~repro.flash.array.FlashArray.health` hook from every
finished batch) and maintains, per device:

- an EWMA of the **error rate** (corrupt-chunk reads and transient I/O
  errors per operation), and
- an EWMA of the **service-time slowdown** — observed service seconds
  divided by what the device's own :class:`ServiceTimeModel` predicts for
  the same operation mix, so the metric is scale-free: a healthy device
  hovers near 1.0 and a fail-slow device converges to its latency
  multiplier regardless of payload sizes.

Policy thresholds move a device ONLINE → SUSPECT (placement stops, reads
prefer peers/parity) → FAILED. The monitor demotes to SUSPECT itself; a
device it demoted for errors returns to ONLINE once ``suspect_grace`` has
passed and scrub has left none of its chunks known-corrupt. The
FAILED verdict is emitted as a transition for the
:class:`~repro.core.supervisor.RecoverySupervisor` to act on (spare swap,
prioritized rebuild), keeping detection separate from repair policy.
Fail-stop failures (device already FAILED on the array) are *observed* by
:meth:`HealthMonitor.poll` and emitted through the same transition stream,
so one listener sees every failure shape.

The *decision* — thresholds (:class:`HealthPolicy`), the rolling record
(:class:`HealthRecord`), the listener log (:class:`TransitionLog`) and the
escalation ladder (:func:`escalate`) — is written once, here, and also
drives the shard detector of :mod:`repro.cluster.health`. A tier keeps what
is its own: how evidence is gathered and where the state is stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Generic, List, NamedTuple, Optional, TypeVar

if TYPE_CHECKING:  # pragma: no cover - imports only for annotations
    from repro.flash.array import ArrayIoResult, FlashArray
    from repro.flash.device import FlashDevice

__all__ = [
    "DeviceHealth",
    "HealthMonitor",
    "HealthPolicy",
    "HealthRecord",
    "HealthTransition",
    "TransitionLog",
    "escalate",
]


@dataclass(frozen=True)
class HealthPolicy:
    """Thresholds separating noise from demotion-worthy pathology.

    One class for both tiers; the defaults are the device tier's, the shard
    tier's are the value :data:`repro.cluster.health.SHARD_HEALTH_POLICY`.

    Attributes:
        alpha: EWMA smoothing factor *per operation*. A batch of ``n`` ops
            moves the average by ``1 - (1 - alpha) ** n``, so one bad op in
            a small batch cannot spike a healthy unit over a threshold —
            only a sustained rate converges there.
        min_ops: operations observed before any verdict (EWMA warm-up; for
            a shard also the baseline-learning window).
        suspect_error_rate: error-rate EWMA demoting ONLINE → SUSPECT.
        fail_error_rate: error-rate EWMA escalating SUSPECT → FAILED.
        suspect_slowdown: slowdown EWMA demoting ONLINE → SUSPECT.
        fail_slowdown: slowdown EWMA escalating straight to FAILED.
        confirm_ops: operations a SUSPECT unit must stay past its suspect
            threshold before the monitor escalates to FAILED — one bad
            burst parks a unit, only a *persistent* pathology replaces it.
        suspect_grace: (device tier only) simulated seconds a device may
            stay SUSPECT before :meth:`HealthMonitor.poll` escalates it to
            FAILED regardless of traffic. Demotion diverts reads to peers,
            so a parked device may see no further I/O and the ops-based
            escalation would starve; the grace period is the time-based
            backstop (a real array would either rehabilitate the device
            with probes or evict it). A device the monitor demoted for
            *errors* is rehabilitated instead: past the grace period it
            returns to ONLINE as soon as its ``corrupt_chunks`` set is
            empty, because scrub has repaired the damage that demoted it.
            Devices suspected for slowdown, or set SUSPECT directly, keep
            the backstop.
        baseline_floor: (shard tier only) lower bound, in seconds, on the
            learned healthy round-trip baseline, so loopback's
            sub-millisecond round trips cannot make scheduler jitter
            register as a pathological slowdown.
    """

    alpha: float = 0.02
    min_ops: int = 8
    suspect_error_rate: float = 0.05
    fail_error_rate: float = 0.30
    suspect_slowdown: float = 3.0
    fail_slowdown: float = 20.0
    confirm_ops: int = 24
    suspect_grace: float = 30.0
    baseline_floor: float = 0.0005

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if self.suspect_error_rate > self.fail_error_rate:
            raise ValueError("suspect_error_rate must not exceed fail_error_rate")
        if self.suspect_slowdown > self.fail_slowdown:
            raise ValueError("suspect_slowdown must not exceed fail_slowdown")
        if self.min_ops < 1 or self.confirm_ops < 1:
            raise ValueError("min_ops and confirm_ops must be >= 1")


@dataclass
class HealthRecord:
    """A monitor's rolling picture of one unit (a device or a shard)."""

    ops: int = 0
    errors: int = 0
    error_ewma: float = 0.0
    slowdown_ewma: float = 1.0
    #: ops counter value when the unit entered SUSPECT (escalation timer).
    suspect_at_ops: Optional[int] = None
    suspect_since: Optional[float] = None


def escalate(
    policy: HealthPolicy, record: HealthRecord, state: str
) -> Optional[tuple[str, str]]:
    """The escalation ladder: ``(new_state, cause)``, or None for no change.

    Pure — the monitors apply the verdict. ``state`` is ``"online"`` or
    ``"suspect"`` (a FAILED unit is never asked). An online unit past a
    suspect threshold turns ``suspect`` (cause ``errors``, else
    ``slowdown``). A suspect one past a fail threshold is ``failed``
    (``hard``); ``confirm_ops`` after its demotion it is ``failed`` if still
    past a suspect threshold (``persistent``), else back ``online``
    (``recovered``).
    """
    if record.ops < policy.min_ops:
        return None
    errs, slow = record.error_ewma, record.slowdown_ewma
    if errs >= policy.suspect_error_rate:
        bad: Optional[str] = "errors"
    elif slow >= policy.suspect_slowdown:
        bad = "slowdown"
    else:
        bad = None
    if state == "online":
        return ("suspect", bad) if bad else None
    if errs >= policy.fail_error_rate or slow >= policy.fail_slowdown:
        return "failed", "hard"
    if record.ops - (record.suspect_at_ops or 0) < policy.confirm_ops:
        return None
    return ("failed", "persistent") if bad else ("online", "recovered")


T = TypeVar("T")


class TransitionLog(Generic[T]):
    """Every state-machine step a monitor emitted, fanned out to listeners."""

    def __init__(self) -> None:
        self.listeners: List[Callable[[T], None]] = []
        self.transitions: List[T] = []

    def _emit(self, transition: T) -> T:
        self.transitions.append(transition)
        for listener in list(self.listeners):
            listener(transition)
        return transition


@dataclass
class DeviceHealth(HealthRecord):
    """One device's record; a swapped-in spare starts a fresh one."""

    generation: int = 0
    #: Why the monitor demoted the device ("errors" or "slowdown"); None
    #: while ONLINE, or when it was set SUSPECT from outside.
    suspect_cause: Optional[str] = None


class HealthTransition(NamedTuple):
    """One state-machine step the monitor decided or observed."""

    device_id: int
    old: str
    new: str  # "suspect" | "failed" | "online" (repaired)
    at: float
    reason: str


def _reason(cause: str, health: HealthRecord) -> str:
    """The transition ``reason`` text for one of :func:`escalate`'s causes."""
    if cause == "errors":
        return f"error_ewma={health.error_ewma:.3f}"
    if cause == "slowdown":
        return f"slowdown_ewma={health.slowdown_ewma:.1f}"
    if cause == "hard":
        return (
            f"error_ewma={health.error_ewma:.3f} "
            f"slowdown_ewma={health.slowdown_ewma:.1f}"
        )
    if cause == "persistent":
        return f"persistent after {health.ops - (health.suspect_at_ops or 0)} ops"
    return cause  # "recovered"


class HealthMonitor(TransitionLog[HealthTransition]):
    """Watches per-device I/O health and drives the SUSPECT/FAILED verdicts."""

    def __init__(
        self, array: "FlashArray", policy: Optional[HealthPolicy] = None
    ) -> None:
        super().__init__()
        self.array = array
        self.policy = policy or HealthPolicy()
        self.devices: Dict[int, DeviceHealth] = {}
        #: Device ids whose FAILED state has been emitted (dedup).
        self._failed_seen: Dict[int, int] = {}
        #: Degraded foreground-read latencies (simulated seconds), for the
        #: durability ledger's degraded-read percentiles.
        self.degraded_read_latencies: List[float] = []
        array.health = self

    # ------------------------------------------------------------------
    # Observation intake
    # ------------------------------------------------------------------
    def ingest(self, result: "ArrayIoResult", now: float) -> None:
        """Fold one array operation's per-device samples into the EWMAs."""
        if result.op == "read" and result.degraded:
            self.degraded_read_latencies.append(result.elapsed)
        for device_id, sample in result.device_io.items():
            device = self.array.devices[device_id]
            health = self._health(device)
            ops = sample.reads + sample.writes
            if ops == 0:
                continue
            health.ops += ops
            health.errors += sample.errors
            # A batch is `ops` EWMA samples of its own rate: the effective
            # smoothing factor compounds per operation.
            alpha = 1.0 - (1.0 - self.policy.alpha) ** ops
            error_rate = sample.errors / ops
            health.error_ewma += alpha * (error_rate - health.error_ewma)
            expected = self._expected_seconds(device, sample)
            if expected > 0.0 and sample.seconds > 0.0:
                slowdown = sample.seconds / expected
                health.slowdown_ewma += alpha * (slowdown - health.slowdown_ewma)
            self._evaluate(device, health, now)

    def poll(self, now: float) -> List[HealthTransition]:
        """Observe out-of-band state changes (fail-stop shootdowns, swaps).

        Returns the transitions emitted by this poll. Called between
        requests by the supervisor so a fail-stop is noticed at the first
        opportunity even when no I/O touches the dead device.
        """
        emitted: List[HealthTransition] = []
        for device in self.array.devices:
            health = self._health(device)  # refreshed on generation change
            if not device.is_available:
                if self._first_failure(device):
                    verdict = HealthTransition(
                        device.device_id, "online", "failed", now, "fail-stop observed"
                    )
                    emitted.append(self._emit(verdict))
                continue
            if not device.is_online:
                # SUSPECT: reads were diverted to peers, so the ops-based
                # escalation may never see another sample. The grace period
                # is the time-based backstop.
                if health.suspect_since is None:
                    health.suspect_since = now
                elif now - health.suspect_since < self.policy.suspect_grace:
                    continue
                elif health.suspect_cause == "errors":
                    # Errors are damage that scrub repairs: once none is
                    # left, nothing is wrong with the device.
                    if not device.corrupt_chunks:
                        emitted.append(self._reinstate(device, health, now))
                elif self._first_failure(device):
                    verdict = HealthTransition(
                        device.device_id, "suspect", "failed", now,
                        f"suspect for {now - health.suspect_since:.3f}s",
                    )
                    emitted.append(self._emit(verdict))
        return emitted

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def health_of(self, device_id: int) -> DeviceHealth:
        return self._health(self.array.devices[device_id])

    def degraded_read_percentile(self, fraction: float) -> float:
        """Degraded foreground-read latency percentile (0 when none seen)."""
        if not self.degraded_read_latencies:
            return 0.0
        ordered = sorted(self.degraded_read_latencies)
        index = min(len(ordered) - 1, int(fraction * (len(ordered) - 1) + 0.5))
        return ordered[index]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _health(self, device: "FlashDevice") -> DeviceHealth:
        health = self.devices.get(device.device_id)
        if health is None or health.generation != device.generation:
            # First sighting, or a spare was swapped in: fresh record — a
            # replacement is a different physical device.
            health = DeviceHealth(generation=device.generation)
            self.devices[device.device_id] = health
        return health

    def _expected_seconds(self, device: "FlashDevice", sample) -> float:
        model = device.model
        return (
            sample.reads * model.read_overhead
            + sample.bytes_read / model.read_bandwidth
            + sample.writes * model.write_overhead
            + sample.bytes_written / model.write_bandwidth
        )

    def _first_failure(self, device: "FlashDevice") -> bool:
        """Claim this generation's one FAILED verdict (the supervisor acts on
        the first; repeats would be noise); False when already claimed."""
        if self._failed_seen.get(device.device_id) == device.generation:
            return False
        self._failed_seen[device.device_id] = device.generation
        return True

    def _reinstate(
        self, device: "FlashDevice", health: DeviceHealth, now: float
    ) -> HealthTransition:
        """Return a repaired device to ONLINE; the errors it was demoted
        for are repaired, so its error average starts afresh."""
        device.reinstate()
        health.error_ewma = 0.0
        health.suspect_at_ops = health.suspect_since = health.suspect_cause = None
        return self._emit(
            HealthTransition(device.device_id, "suspect", "online", now, "repaired")
        )

    def _evaluate(self, device: "FlashDevice", health: DeviceHealth, now: float) -> None:
        if not device.is_available:
            return
        state = "online" if device.is_online else "suspect"
        verdict = escalate(self.policy, health, state)
        if verdict is None or verdict[0] == "online":
            # `recovered` is ignored by this tier: demotion diverted the
            # device's reads to its peers, so the trickle it still serves is
            # no evidence of health. A parked device leaves SUSPECT by being
            # replaced or through the grace period in `poll`.
            return
        new, cause = verdict
        if new == "suspect":
            device.suspect()
            health.suspect_at_ops = health.ops
            health.suspect_since = now
            health.suspect_cause = cause
        elif not self._first_failure(device):
            return
        else:
            health.suspect_cause = None  # a FAILED verdict has no way back
        self._emit(
            HealthTransition(device.device_id, state, new, now, _reason(cause, health))
        )
