"""The run path is invisible: programming and reading by device runs changes no result.

A write whose devices have no hook attached and whose runs all fit hands
each device its run in one call; a healthy object of more than one stripe is
read as one run per device. An empty-plan :class:`FaultInjector` on every
device injects nothing but forces every chunk through the per-chunk calls.
The same seeded script on both arrays must give identical results: every
:class:`ArrayIoResult` (``device_io`` and its order included), every
returned payload and raised error, every ``DeviceStats``, ``busy_until``,
``used_bytes`` and stored byte.
"""

import dataclasses
import random
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.flash.array import FlashArray
from repro.flash.device import FlashDevice
from repro.flash.latency import INTEL_540S_SSD
from repro.flash.stripe import ParityScheme, ReplicationScheme

CHUNK = 64
WIDTH = 5
SCHEMES = (
    ReplicationScheme(),
    ParityScheme(0),
    ParityScheme(1),
    ParityScheme(2),
)


def result_of(result):
    return (
        result.op,
        result.elapsed,
        result.chunks_read,
        result.chunks_written,
        result.bytes_read,
        result.bytes_written,
        result.degraded,
        [(device_id, dataclasses.astuple(sample)) for device_id, sample in result.device_io.items()],
    )


def state_of(array):
    return [
        (
            dataclasses.astuple(device.stats),
            device.busy_until,
            device.used_bytes,
            device.state,
            dict(device._chunks),
            set(device.corrupt_chunks),
        )
        for device in array.devices
    ]


@st.composite
def scripts(draw):
    """Seeded operations: writes and overwrites around the k x chunk
    boundaries of every scheme, reads, deletes and a SUSPECT or FAILED
    device, with clock steps that leave devices busy between operations."""
    steps = []
    for _ in range(draw(st.integers(min_value=1, max_value=30))):
        op = draw(st.sampled_from(["write", "write", "write", "read", "read", "delete", "demote"]))
        scheme = draw(st.sampled_from(SCHEMES))
        k = scheme.data_chunks_per_stripe(WIDTH)
        stripes = draw(st.integers(min_value=0, max_value=5))
        nudge = draw(st.integers(min_value=-k - 1, max_value=k + 1))
        size = max(0, stripes * k * CHUNK + nudge)
        steps.append((op, draw(st.integers(min_value=0, max_value=3)), scheme, size,
                      draw(st.sampled_from([0.0, 50e-6, 1e-3]))))
    return steps


def replay(steps, capacity, hooked):
    """Run ``steps`` on a fresh array; the outcome of every step and the end state."""
    array = FlashArray(
        num_devices=WIDTH, device_capacity=capacity, chunk_size=CHUNK, model=INTEL_540S_SSD
    )
    if hooked:
        FaultInjector(FaultPlan()).attach(array)
    rng = random.Random(7)
    outcomes = []
    for op, key, scheme, size, step in steps:
        array.clock.advance(step)
        try:
            if op == "write":
                payload = rng.randbytes(size)
                outcome = result_of(array.write_object(key, payload, scheme, overwrite=True))
            elif op == "read":
                payload, result = array.read_object(key)
                outcome = (payload, result_of(result))
            elif op == "delete":
                outcome = result_of(array.delete_object(key))
            elif key == 0:
                array.devices[size % WIDTH].suspect()
                outcome = None
            else:
                array.fail_device(size % WIDTH)
                outcome = None
        except ReproError as exc:
            outcome = type(exc).__name__
        outcomes.append((op, key, outcome, state_of(array)))
    return outcomes


class TestRunPathEquivalence:
    @given(scripts(), st.sampled_from([10**6, 2_000]))
    @settings(max_examples=150, deadline=None)
    def test_runs_and_chunks_agree(self, steps, capacity):
        # 2,000-byte devices overflow: those writes go chunk by chunk on
        # both arrays, and roll back on the same chunk.
        assert replay(steps, capacity, hooked=False) == replay(steps, capacity, hooked=True)

    def test_the_run_path_is_taken(self):
        """Multi-stripe objects move as runs; hooked devices never see one."""
        calls = {"write_run": [], "read_run": []}
        originals = {name: getattr(FlashDevice, name) for name in calls}

        def spy(name):
            def recording(self, *args):
                calls[name].append(self)
                return originals[name](self, *args)
            return recording

        steps = [("write", 1, scheme, 3 * CHUNK * scheme.data_chunks_per_stripe(WIDTH) + 5, 0.0)
                 for scheme in SCHEMES]
        steps += [("read", 1, None, 0, 0.0)]
        with mock.patch.object(FlashDevice, "write_run", spy("write_run")), \
                mock.patch.object(FlashDevice, "read_run", spy("read_run")):
            plain = replay(steps, 10**6, hooked=False)
            run_calls = {name: len(devices) for name, devices in calls.items()}
            hooked = replay(steps, 10**6, hooked=True)
        assert plain == hooked
        assert run_calls["write_run"] >= len(SCHEMES) * 2 and run_calls["read_run"] >= 2
        assert {name: len(devices) for name, devices in calls.items()} == run_calls

    def test_an_overflowing_run_fails_on_the_same_chunk(self):
        """The per-chunk path keeps DeviceFullError and the wear counters in place."""
        size = 12 * CHUNK  # 12 stripes, 768 bytes on every device
        steps = [("write", 1, ReplicationScheme(), size, 0.0),
                 ("write", 2, ReplicationScheme(), size, 0.0)]
        plain = replay(steps, 1_000, hooked=False)
        assert plain == replay(steps, 1_000, hooked=True)
        *_, outcome, state = plain[-1]
        assert outcome == "DeviceFullError"
        # Three chunks of the second object were programmed, then rolled back.
        assert [stats[1] for stats, *_ in state] == [15] * WIDTH  # writes
        assert [stats[6] for stats, *_ in state] == [3] * WIDTH  # erases
