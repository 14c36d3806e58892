"""Tests for the durability ledger and the supervised closed loop.

The end-to-end tests are the issue's acceptance criteria in miniature: a
seeded campaign (latent bit-rot noise + a staged fail-slow + a scheduled
fail-stop) must be *detected* by the health monitor, *repaired* by the
supervisor (spare swap, class-ordered rebuild, targeted scrub), and *booked*
in the ledger — with zero loss in the protected classes (0-2) and a
byte-identical ledger for identical seeds.
"""

import json

import pytest

from repro.core.supervisor import DurabilityLedger
from repro.experiments.common import PROFILES
from repro.experiments.fault_campaign import run_fault_campaign


class TestDurabilityLedger:
    def test_incident_lifecycle(self):
        ledger = DurabilityLedger()
        incident = ledger.incident_for(2, 0)
        assert ledger.incident_for(2, 0) is incident  # same open incident
        incident.suspected_at = 1.0
        incident.failed_at = 2.0
        ledger.begin_degraded(2.0)
        ledger.mark_recovered(5.0)
        assert incident.recovered_at == 5.0
        assert incident.detected_at == 1.0
        assert incident.time_to_full_redundancy() == pytest.approx(4.0)
        # A later incident for the *next* generation opens a fresh record.
        assert ledger.incident_for(2, 1) is not incident

    def test_a_repaired_suspect_closes_its_incident_alone(self):
        ledger = DurabilityLedger()
        repaired = ledger.incident_for(0, 0)
        repaired.suspected_at = 1.0
        failed = ledger.incident_for(1, 0)
        failed.failed_at = 1.5
        ledger.close_incident(0, 0, now=1.25)
        assert repaired.recovered_at == 1.25 and repaired.failed_at is None
        assert repaired.time_to_full_redundancy() == pytest.approx(0.25)
        assert ledger.incident_for(0, 0) is not repaired  # a new symptom, a new record
        assert failed.recovered_at is None
        ledger.mark_recovered(3.0)
        assert failed.recovered_at == 3.0 and repaired.recovered_at == 1.25

    def test_degraded_windows_accumulate(self):
        ledger = DurabilityLedger()
        ledger.begin_degraded(1.0)
        ledger.begin_degraded(2.0)  # idempotent while open
        ledger.end_degraded(3.0)
        ledger.begin_degraded(10.0)
        ledger.end_degraded(14.0)
        assert ledger.reduced_redundancy_windows == [[1.0, 3.0], [10.0, 14.0]]
        assert ledger.reduced_redundancy_seconds == pytest.approx(6.0)

    def test_detection_latency_uses_first_matching_incident(self):
        ledger = DurabilityLedger()
        incident = ledger.incident_for(1, 0)
        incident.failed_at = 7.5
        assert ledger.detection_latency(7.0, device_id=1) == pytest.approx(0.5)
        assert ledger.detection_latency(8.0, device_id=1) is None  # before injection
        assert ledger.detection_latency(0.0, device_id=3) is None  # no incident

    def test_loss_accounting_by_class(self):
        ledger = DurabilityLedger()
        ledger.record_lost(3)
        ledger.record_lost(3)
        ledger.record_lost(1)
        assert ledger.objects_lost == 3
        assert ledger.to_dict()["lost_by_class"] == {"1": 1, "3": 2}

    def test_to_dict_is_json_serialisable(self):
        ledger = DurabilityLedger()
        ledger.incident_for(0, 0).failed_at = 1.0
        ledger.begin_degraded(1.0)
        ledger.mark_recovered(2.0)
        json.dumps(ledger.to_dict())  # must not raise


class TestClosedLoop:
    """Seeded end-to-end campaign: detect → spare → rebuild → scrub."""

    CAMPAIGN = dict(
        profile=PROFILES["smoke"], seed=1234, num_objects=300, num_requests=1200
    )

    @pytest.fixture(scope="class")
    def result(self):
        return run_fault_campaign(**self.CAMPAIGN)

    def test_no_protected_class_loss(self, result):
        assert result.protected_losses == 0
        for class_id in ("0", "1", "2"):
            assert result.ledger["lost_by_class"].get(class_id, 0) == 0

    def test_every_injected_fault_detected(self, result):
        assert "fail_slow_detection_latency_s" in result.counts
        assert "fail_stop_detection_latency_s" in result.counts
        assert all(v >= 0.0 for v in result.counts.values())

    def test_all_incidents_closed(self, result):
        incidents = result.ledger["incidents"]
        assert incidents, "campaign produced no incidents"
        assert all(i["recovered_at"] is not None for i in incidents)
        assert result.record["metrics"]["time_to_full_redundancy_s"]["value"] > 0.0

    def test_degraded_windows_are_bounded(self, result):
        # Reduced redundancy opened when a device fell and closed when the
        # rebuild finished — there is no window still open at campaign end.
        for start, end in result.ledger["reduced_redundancy_windows"]:
            assert end >= start
        assert result.ledger["reduced_redundancy_seconds"] >= 0.0

    def test_scrubber_ran_and_repaired(self, result):
        assert result.ledger["scrub_passes"] >= 1
        assert result.ledger["chunks_scrubbed"] > 0

    def test_identical_seed_byte_identical_ledger(self, result):
        rerun = run_fault_campaign(**self.CAMPAIGN)
        dumps = lambda r: json.dumps(r.ledger, sort_keys=True)  # noqa: E731
        assert dumps(rerun) == dumps(result)
        assert json.dumps(rerun.record, sort_keys=True) == json.dumps(
            result.record, sort_keys=True
        )

    def test_different_seed_different_campaign(self, result):
        other = run_fault_campaign(**{**self.CAMPAIGN, "seed": 4321})
        assert json.dumps(other.ledger, sort_keys=True) != json.dumps(
            result.ledger, sort_keys=True
        )
