"""Golden engine equivalence: billing order and float sums must not move.

One seeded script drives a single array through every engine entry point —
fresh writes under each scheme, overwrites, deletes, partial updates, a
SUSPECT device, a device failure with degraded reads, spare replacement and
rebuild, a corrupted chunk and a scrub, then a fault-injector plan with
latent errors, transient errors, torn writes and a fail-slow device. Every
:class:`ArrayIoResult` (``device_io`` included), every ``DeviceStats``,
``busy_until``, ``used_bytes``, ``corrupt_chunks`` and the array's byte
counters go into one digest.

``GOLDEN`` was recorded at the commit *before* the engine hot path was
reworked (PR 13). An engine change that keeps simulated results
bit-identical leaves it alone; any change to I/O order, to the order
service times are summed in, or to what is stored where, moves it.

When partial replication was removed, ``ReplicationScheme(2)`` left
``SCHEMES`` and the digest was re-derived on the last engine that still
had it, so it still pins results from before that removal.
"""

import dataclasses
import hashlib
import random
import zlib

from repro.errors import ReproError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FailSlow, FaultPlan, LatentErrors, TornWrite, TransientReadError
from repro.flash.array import FlashArray, ObjectHealth
from repro.flash.latency import INTEL_540S_SSD
from repro.flash.stripe import ParityScheme, ReplicationScheme

GOLDEN = "b5d86d678ed6562ffcd660d95a759f92a48fad1b52507fb9c8392c865d245945"

CHUNK = 256
SCHEMES = (
    ReplicationScheme(),
    ParityScheme(0),
    ParityScheme(1),
    ParityScheme(2),
)
#: Payload sizes on and around the k x chunk boundaries of every scheme.
SIZES = (0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK, 3 * CHUNK + 7, 4 * CHUNK,
         5 * CHUNK - 1, 5 * CHUNK, 9 * CHUNK + 100, 20 * CHUNK + 3)


def io_snapshot(result):
    return (
        result.op,
        repr(result.elapsed),
        result.chunks_read,
        result.chunks_written,
        result.bytes_read,
        result.bytes_written,
        result.degraded,
        tuple(
            (device_id, tuple(repr(v) for v in dataclasses.astuple(sample)))
            for device_id, sample in sorted(result.device_io.items())
        ),
    )


class Script:
    def __init__(self):
        self.rng = random.Random(20190707)
        self.array = FlashArray(
            num_devices=5, device_capacity=8 * 2**20, chunk_size=CHUNK,
            model=INTEL_540S_SSD,
        )
        self.digest = hashlib.sha256()
        self.sizes = {}
        self.serial = 0

    # -- recording -----------------------------------------------------
    def note(self, *items):
        self.digest.update(repr(items).encode("ascii"))

    def tick(self):
        # Sometimes less than the last operation took, so later batches
        # find devices still busy and bill a wait.
        self.array.clock.advance(self.rng.choice((0.0, 20e-6, 150e-6, 2e-3)))

    def attempt(self, label, key, call):
        """Run one engine call; record its result or the error it raised."""
        self.tick()
        try:
            outcome = call()
        except ReproError as exc:
            self.note(label, key, type(exc).__name__)
            return None
        self.note(label, key, outcome)
        return outcome

    # -- operations ----------------------------------------------------
    def write(self, key, scheme, size, overwrite=False):
        payload = self.rng.randbytes(size)
        done = self.attempt(
            "write", key,
            lambda: io_snapshot(
                self.array.write_object(key, payload, scheme, overwrite=overwrite)
            ),
        )
        if done is not None:
            self.sizes[key] = size

    def read(self, key):
        def call():
            payload, result = self.array.read_object(key)
            return zlib.crc32(payload), io_snapshot(result)

        self.attempt("read", key, call)

    def update(self, key):
        size = self.sizes[key]
        if not size:
            return
        offset = self.rng.randrange(size)
        data = self.rng.randbytes(self.rng.randint(1, min(size - offset, 2 * CHUNK)))
        self.attempt(
            "update", key,
            lambda: io_snapshot(self.array.update_range(key, offset, data)),
        )

    def delete(self, key):
        self.attempt("delete", key, lambda: io_snapshot(self.array.delete_object(key)))
        if key not in self.array:
            del self.sizes[key]

    def scrub(self):
        def call():
            report = self.array.scrub()
            return (
                report.objects_checked, report.chunks_checked, report.chunks_repaired,
                tuple(report.unrecoverable_objects), io_snapshot(report.io),
            )

        self.attempt("scrub", None, call)

    def fresh_key(self):
        self.serial += 1
        return f"obj{self.serial}"

    def populate(self, count):
        for _ in range(count):
            self.write(self.fresh_key(), self.rng.choice(SCHEMES), self.rng.choice(SIZES))

    def mixed(self, steps):
        for _ in range(steps):
            keys = sorted(self.sizes)
            roll = self.rng.random()
            if roll < 0.40 and keys:
                self.read(self.rng.choice(keys))
            elif roll < 0.60:
                self.populate(1)
            elif roll < 0.75 and keys:
                key = self.rng.choice(keys)
                self.write(key, self.rng.choice(SCHEMES), self.rng.choice(SIZES),
                           overwrite=True)
            elif roll < 0.90 and keys:
                self.update(self.rng.choice(keys))
            elif keys:
                self.delete(self.rng.choice(keys))

    def drop_lost(self):
        for key in sorted(self.sizes):
            if self.array.object_health(key) is ObjectHealth.LOST:
                self.delete(key)

    # -- the script ----------------------------------------------------
    def run(self):
        array = self.array
        for scheme in SCHEMES:
            for size in SIZES:
                self.write(self.fresh_key(), scheme, size)
        for key in sorted(self.sizes):
            self.read(key)
        self.mixed(150)

        # A SUSPECT device keeps serving but loses placement and read priority.
        array.devices[3].suspect()
        self.mixed(100)
        for key in sorted(self.sizes):
            self.read(key)

        # Fail-stop, degraded service, spare, rebuild.
        array.fail_device(1)
        self.drop_lost()
        for key in sorted(self.sizes):
            self.read(key)
        self.mixed(80)
        array.replace_device(1)
        for key in sorted(self.sizes):
            self.note("missing", key, len(array.triage_object(key)[0]))
            self.attempt("rebuild", key, lambda: io_snapshot(array.rebuild_object(key)))
        array.replace_device(3)  # the suspect is swapped out as well
        for key in sorted(self.sizes):
            self.attempt("rebuild", key, lambda: io_snapshot(array.rebuild_object(key)))
        self.mixed(60)

        # Silent corruption: tripped by reads, demoted on re-read, scrubbed.
        for key in self.rng.sample(sorted(k for k, s in self.sizes.items() if s), 12):
            stripe = self.rng.choice(array.get_extent(key).stripes)
            chunk = self.rng.choice(stripe.chunks)
            array.devices[chunk.device_id].corrupt_chunk(chunk.address)
            self.read(key)
            self.read(key)
        self.note("corrupt-owners", tuple(array.corrupt_object_keys()))
        self.drop_lost()
        self.scrub()

        # An injected campaign on top.
        now = array.clock.now
        injector = FaultInjector(
            FaultPlan(
                events=(
                    LatentErrors(uber_rate=0.03, seed=5),
                    TransientReadError(rate=0.02, devices=(0, 4)),
                    TornWrite(rate=0.04),
                    FailSlow(device=2, latency_multiplier=3.5, from_time=now + 0.01),
                ),
                seed=11,
            )
        ).attach(array)
        self.mixed(400)
        for key in sorted(self.sizes):
            self.read(key)
        self.note(
            "injected", injector.injected_corruptions, injector.injected_transients,
            injector.injected_torn_writes,
        )
        injector.detach()
        self.drop_lost()
        self.scrub()
        self.scrub()
        for key in sorted(self.sizes):
            self.read(key)

        for device in array.devices:
            self.note(
                "device", device.device_id, device.state.value, device.generation,
                dataclasses.astuple(device.stats), repr(device.busy_until),
                device.used_bytes, device.chunk_count, tuple(sorted(device.corrupt_chunks)),
            )
        self.note(
            "array", len(array), array.logical_bytes, array.data_bytes,
            array.redundancy_bytes, array.used_bytes, repr(array.clock.now),
        )
        return self.digest.hexdigest()


def test_script_is_deterministic():
    assert Script().run() == Script().run()


def test_engine_matches_parent_commit_digest():
    assert Script().run() == GOLDEN
