"""Fixtures for the determinism-taint whole-program rule."""

from __future__ import annotations

from repro.analysis.rules import DeterminismTaintRule


def only(lint):
    return lint.run([DeterminismTaintRule()])


def test_fires_on_wall_clock_into_ledger_booking(lint):
    lint.write(
        "cluster/supervisor.py",
        """
        import time

        class Supervisor:
            def condemn(self, shard):
                self.ledger.record_incident(
                    shard, reason=f"condemned at {time.time()}"
                )
        """,
    )
    (finding,) = only(lint)
    assert finding.rule_id == "determinism-taint"
    assert "DurabilityLedger.record_incident" in finding.message


def test_fires_on_ewma_reason_booked_two_modules_away(lint):
    # The PR-8 shape: an EWMA read in cluster/health.py is formatted into
    # a reason string and booked by a helper in another module.
    lint.write(
        "cluster/health.py",
        """
        from repro.cluster.booking import book

        class Detector:
            def verdict(self, shard):
                reason = f"error_ewma={self.error_ewma:.3f}"
                book(shard, reason)
        """,
    )
    lint.write(
        "cluster/booking.py",
        """
        def book(shard, reason):
            LEDGER.ledger.record_incident(shard, reason)
        """,
    )
    findings = only(lint)
    # Both ends are reported: the tainted booking inside the helper, and
    # the call site that feeds it — the place the fix belongs.
    assert {f.rule_id for f in findings} == {"determinism-taint"}
    by_path = {f.path.rsplit("/", 1)[-1] for f in findings}
    assert by_path == {"health.py", "booking.py"}
    origin = next(f for f in findings if f.path.endswith("health.py"))
    assert "book" in origin.message


def test_fires_on_attribute_store_on_ledger_record(lint):
    lint.write(
        "cluster/amend.py",
        """
        class Supervisor:
            def amend(self, shard, loop):
                incident = self.ledger.incident_for(shard)
                incident.reason = f"seen at {loop.time()}"
        """,
    )
    (finding,) = only(lint)
    assert "ledger record" in finding.message
    assert ".reason" in finding.message


def test_fires_on_bench_field_outside_metrics(lint):
    lint.write(
        "experiments/sweep.py",
        """
        import time

        def to_bench_report(result):
            return {
                "schema": 1,
                "finished_at": time.time(),
                "metrics": {"ops": {"value": result.ops}},
            }
        """,
    )
    (finding,) = only(lint)
    assert "'finished_at'" in finding.message


def test_quiet_when_measurement_stays_under_metrics(lint):
    lint.write(
        "experiments/sweep_ok.py",
        """
        import time

        def run_bench(result):
            started = time.perf_counter()
            elapsed = time.perf_counter() - started
            return {
                "schema": 1,
                "seed": result.seed,
                "metrics": {"wall_s": {"value": elapsed}},
            }
        """,
    )
    assert only(lint) == []


def test_ledger_artefact_function_is_strict_even_under_metrics(lint):
    lint.write(
        "experiments/artefact.py",
        """
        import time

        def write_ledger_json(result):
            return {
                "seed": result.seed,
                "metrics": {"stamp": time.time()},
            }
        """,
    )
    (finding,) = only(lint)
    assert finding.rule_id == "determinism-taint"


def test_quiet_for_ewma_outside_wall_clock_domain(lint):
    # Core-domain EWMAs are fed from SimClock time: deterministic per
    # seed, so booking them is allowed.
    lint.write(
        "core/health.py",
        """
        class Detector:
            def verdict(self, shard):
                self.ledger.record_incident(
                    shard, reason=f"error_ewma={self.error_ewma:.3f}"
                )
        """,
    )
    assert only(lint) == []


def test_quiet_for_fixed_reason_strings(lint):
    lint.write(
        "cluster/fixed.py",
        """
        class Supervisor:
            def condemn(self, shard):
                self.ledger.record_incident(shard, reason="auto: detector verdict")
        """,
    )
    assert only(lint) == []


def test_taint_flows_through_constructed_fields(lint):
    # EWMA -> constructor kwarg -> typed field read -> booking.
    lint.write(
        "cluster/transition.py",
        """
        class Transition:
            def __init__(self, shard, reason):
                self.shard = shard
                self.reason = reason
        """,
    )
    lint.write(
        "cluster/detector.py",
        """
        from repro.cluster.transition import Transition

        class Detector:
            def emit(self, shard):
                return Transition(shard, f"ewma={self.err_ewma}")
        """,
    )
    lint.write(
        "cluster/super2.py",
        """
        from repro.cluster.transition import Transition

        class Supervisor:
            def handle(self, transition: Transition):
                self.ledger.record_incident(transition.shard, transition.reason)
        """,
    )
    findings = only(lint)
    assert [f.rule_id for f in findings] == ["determinism-taint"]
    assert findings[0].path.endswith("cluster/super2.py")


def test_shared_ladder_keeps_the_shard_catch_and_the_device_tier_quiet(lint):
    # The failure plane's shape: one escalation function in repro.core,
    # called by both monitors; each tier formats its own reason from its own
    # *ewma* reads and has its own transition class. The shard supervisor
    # booking that reason fires; the device supervisor doing the same does
    # not — its EWMAs are fed from simulated time.
    lint.write(
        "core/health.py",
        """
        from typing import NamedTuple

        def escalate(policy, record, state):
            if record.error_ewma >= policy.suspect_error_rate:
                return "suspect", "errors"
            return None

        class HealthTransition(NamedTuple):
            device_id: int
            new: str
            reason: str

        def _reason(cause, health):
            return f"error_ewma={health.error_ewma:.3f}"

        class HealthMonitor:
            def ingest(self, device_id, health):
                new, cause = escalate(self.policy, health, "online")
                return HealthTransition(device_id, new, _reason(cause, health))
        """,
    )
    lint.write(
        "core/supervisor.py",
        """
        from repro.core.health import HealthTransition

        class RecoverySupervisor:
            def on_transition(self, transition: HealthTransition):
                incident = self.ledger.incident_for(transition.device_id)
                incident.reason = transition.reason
        """,
    )
    lint.write(
        "cluster/health.py",
        """
        from typing import NamedTuple

        from repro.core.health import escalate

        class ShardTransition(NamedTuple):
            shard_id: int
            new: str
            reason: str

        def _reason(cause, health):
            return f"error_ewma={health.error_ewma:.3f}"

        class ShardHealthMonitor:
            def observe(self, shard_id, health):
                new, cause = escalate(self.policy, health, health.state)
                return ShardTransition(shard_id, new, _reason(cause, health))
        """,
    )
    lint.write(
        "cluster/supervisor.py",
        """
        from repro.cluster.health import ShardTransition

        class ClusterSupervisor:
            def on_transition(self, transition: ShardTransition):
                incident = self.ledger.incident_for(transition.shard_id)
                incident.reason = transition.reason
        """,
    )
    (finding,) = only(lint)
    assert finding.path.endswith("cluster/supervisor.py")
    assert ".reason" in finding.message


def test_suppression_silences_a_booking(lint):
    lint.write(
        "cluster/waived.py",
        """
        import time

        class Supervisor:
            def condemn(self, shard):
                # repro: allow[determinism-taint]
                self.ledger.record_incident(shard, reason=str(time.time()))
        """,
    )
    assert only(lint) == []
