"""Validation of the device fault-event vocabulary.

The plan container itself is tested under both vocabularies in
``test_container.py``.
"""

import pytest

from repro.errors import FaultPlanError
from repro.faults.plan import (
    FailSlow,
    FailStop,
    FaultPlan,
    LatentErrors,
    TornWrite,
    TransientReadError,
)


class TestValidation:
    def test_rates_must_be_probabilities(self):
        with pytest.raises(FaultPlanError):
            FaultPlan(events=(LatentErrors(uber_rate=1.5),))
        with pytest.raises(FaultPlanError):
            FaultPlan(events=(TransientReadError(rate=-0.1),))
        with pytest.raises(FaultPlanError):
            FaultPlan(events=(TornWrite(rate=2.0),))

    def test_fail_stop_requires_valid_schedule(self):
        with pytest.raises(FaultPlanError):
            FaultPlan(events=(FailStop(at_time=-1.0, device=0),))
        with pytest.raises(FaultPlanError):
            FaultPlan(events=(FailStop(at_time=0.0, device=-2),))

    def test_fail_slow_multiplier_at_least_one(self):
        with pytest.raises(FaultPlanError):
            FaultPlan(events=(FailSlow(device=0, latency_multiplier=0.5),))

    def test_latent_max_events_non_negative(self):
        with pytest.raises(FaultPlanError):
            FaultPlan(events=(LatentErrors(uber_rate=0.1, max_events=-1),))
