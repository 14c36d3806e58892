"""Tests for the parity-budget accounting."""

import math

import pytest

from repro.core.policy import reo_policy, uniform_parity
from repro.core.redundancy import RedundancyBudget
from repro.flash.array import FlashArray
from repro.flash.latency import ZERO_COST
from repro.flash.stripe import ParityScheme, ReplicationScheme
from repro.osd.target import OsdTarget


def make_array(num_devices=5, capacity=100_000):
    return FlashArray(
        num_devices=num_devices,
        device_capacity=capacity,
        chunk_size=64,
        model=ZERO_COST,
    )


class TestBudget:
    def test_budget_is_fraction_of_capacity(self):
        array = make_array(capacity=100_000)
        budget = RedundancyBudget(array, reo_policy(0.2))
        assert budget.budget_bytes == pytest.approx(0.2 * 500_000)

    def test_uniform_policy_disables_budgeting(self):
        # A target builds a budget only for a policy that declares a reserve.
        assert OsdTarget(make_array(), uniform_parity(1)).budget is None
        assert OsdTarget(make_array(), reo_policy(0.2)).budget is not None

    def test_used_bytes_tracks_array(self):
        array = make_array()
        budget = RedundancyBudget(array, reo_policy(0.2))
        array.write_object("a", b"x" * 640, ParityScheme(2))
        assert budget.used_bytes == array.redundancy_bytes > 0

    def test_available_shrinks_with_usage(self):
        array = make_array()
        budget = RedundancyBudget(array, reo_policy(0.2))
        before = budget.available_bytes
        array.write_object("a", b"x" * 6400, ReplicationScheme())
        assert budget.available_bytes < before

    def test_is_full(self):
        array = make_array(capacity=2_000)
        budget = RedundancyBudget(array, reo_policy(0.1))  # reserve = 1000
        array.write_object("a", b"x" * 640, ReplicationScheme())  # 4x640 redundancy
        assert budget.is_full

    def test_budget_shrinks_on_device_failure(self):
        array = make_array(capacity=100_000)
        budget = RedundancyBudget(array, reo_policy(0.2))
        before = budget.budget_bytes
        array.fail_device(0)
        assert budget.budget_bytes == pytest.approx(before * 4 / 5)

    def test_hot_overhead_per_byte(self):
        array = make_array()
        budget = RedundancyBudget(array, reo_policy(0.2))
        # 2-parity on 5 devices: 5/3 multiplier, 2/3 overhead.
        assert budget.hot_overhead_per_byte() == pytest.approx(2 / 3)

    def test_hot_overhead_infeasible_width(self):
        array = make_array(num_devices=5)
        for device_id in range(3):
            array.fail_device(device_id)
        budget = RedundancyBudget(array, reo_policy(0.2))
        assert budget.hot_overhead_per_byte() == math.inf
        assert not budget.can_afford_hot(1)

    def test_can_afford_hot(self):
        array = make_array(capacity=1_000)  # budget 0.2*5000 = 1000
        budget = RedundancyBudget(array, reo_policy(0.2))
        assert budget.can_afford_hot(1_200)  # overhead 800 <= 1000
        assert not budget.can_afford_hot(2_000)  # overhead 1333 > 1000
