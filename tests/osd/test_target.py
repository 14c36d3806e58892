"""Tests for the OSD target: data path, classification, control object."""

import pytest

from repro.core.policy import reo_policy
from repro.faults.injector import FaultInjector
from repro.faults.plan import FailStop, FaultPlan
from repro.flash.array import FlashArray
from repro.flash.latency import ZERO_COST
from repro.flash.stripe import ChunkKind, ParityScheme, ReplicationScheme
from repro.osd import commands
from repro.osd.control import QueryMessage, SetClassMessage
from repro.osd.initiator import OsdInitiator
from repro.osd.sense import SenseCode
from repro.osd.target import OsdTarget
from repro.osd.types import CONTROL_OBJECT, PARTITION_BASE, ObjectId, ObjectKind


def reo_like_policy(class_id: int):
    """The paper's class -> scheme map (Table II + §IV-C.4)."""
    if class_id in (0, 1):
        return ReplicationScheme()
    if class_id == 2:
        return ParityScheme(2)
    return ParityScheme(0)


def make_target(policy=reo_like_policy, num_devices=5):
    array = FlashArray(
        num_devices=num_devices,
        device_capacity=10**6,
        chunk_size=64,
        model=ZERO_COST,
    )
    target = OsdTarget(array, policy=policy)
    target.create_partition(PARTITION_BASE)
    return target


USER_A = ObjectId(PARTITION_BASE, 0x10005)
USER_B = ObjectId(PARTITION_BASE, 0x10006)


def class_label(target, object_id):
    """The label the cluster supervisor's class query reads, or None on FAIL."""
    response = commands.GetAttr(object_id).apply(target)
    return response.payload.decode("ascii") if response.ok else None


class TestNamespace:
    def test_create_partition_once(self):
        target = make_target()
        assert target.create_partition(PARTITION_BASE).sense is SenseCode.FAIL
        assert target.has_partition(PARTITION_BASE)

    def test_write_to_unknown_partition_fails(self):
        target = make_target()
        response = target.write_object(ObjectId(0x20000, 0x10005), b"x")
        assert response.sense is SenseCode.FAIL

    def test_list_partition(self):
        target = make_target()
        target.write_object(USER_B, b"b")
        target.write_object(USER_A, b"a")
        assert target.list_partition(PARTITION_BASE) == [USER_A, USER_B]

    def test_object_info_recorded(self):
        target = make_target()
        target.write_object(USER_A, b"abc", class_id=2)
        info = target.get_info(USER_A)
        assert info.size == 3
        assert info.class_id == 2
        assert info.kind is ObjectKind.USER

    def test_partition_object_takes_no_data_write(self):
        target = make_target()
        partition = ObjectId(PARTITION_BASE, 0)
        assert target.write_object(partition, b"x" * 5000).sense is SenseCode.FAIL
        assert partition not in target.array
        assert target.array.free_bytes == make_target().array.free_bytes

    def test_partition_object_is_not_removed(self):
        target = make_target()
        partition = ObjectId(PARTITION_BASE, 0)
        assert target.remove_object(partition).sense is SenseCode.FAIL
        assert target.has_partition(PARTITION_BASE)
        assert target.create_partition(PARTITION_BASE).sense is SenseCode.FAIL
        assert target.write_object(USER_A, b"a").ok

    def test_partition_object_is_not_a_stored_object(self):
        # A READ names no stored data (FAIL, not 0x63 data lost), and a
        # #SETID# cannot label a partition.
        target = make_target()
        partition = ObjectId(PARTITION_BASE, 0)
        assert not target.exists(partition)
        assert target.read_object(partition).sense is SenseCode.FAIL
        setid = SetClassMessage(partition, 2).encode()
        assert target.write_object(CONTROL_OBJECT, setid).sense is SenseCode.FAIL
        assert target.set_class(partition, 2).sense is SenseCode.FAIL
        assert class_label(target, partition) is None
        assert target.query(QueryMessage(partition, "R", 0, 0)) is SenseCode.FAIL
        assert list(target.user_objects()) == []


class TestDataPath:
    def test_write_read_roundtrip(self):
        target = make_target()
        payload = bytes(range(256)) * 4
        assert target.write_object(USER_A, payload, class_id=3).ok
        response = target.read_object(USER_A)
        assert response.ok
        assert response.payload == payload

    def test_read_unknown_fails(self):
        assert make_target().read_object(USER_A).sense is SenseCode.FAIL

    def test_overwrite_updates_size(self):
        target = make_target()
        target.write_object(USER_A, b"aaaa", class_id=3)
        target.write_object(USER_A, b"bb")
        assert target.get_info(USER_A).size == 2
        assert target.read_object(USER_A).payload == b"bb"

    def test_overwrite_keeps_class_when_not_given(self):
        target = make_target()
        target.write_object(USER_A, b"aaaa", class_id=1)
        target.write_object(USER_A, b"bb")
        assert target.get_info(USER_A).class_id == 1

    def test_remove(self):
        target = make_target()
        target.write_object(USER_A, b"abc")
        assert target.remove_object(USER_A).ok
        assert not target.exists(USER_A)
        assert target.remove_object(USER_A).sense is SenseCode.FAIL

    def test_class_determines_scheme(self):
        target = make_target()
        target.write_object(USER_A, b"x" * 640, class_id=3)  # 0-parity
        target.write_object(USER_B, b"y" * 640, class_id=1)  # full replication
        extent_a = target.array.get_extent(USER_A)
        extent_b = target.array.get_extent(USER_B)
        assert extent_a.redundancy_bytes == 0
        assert extent_b.redundancy_bytes == 4 * extent_b.data_bytes

    def test_corrupted_read_returns_sense_0x63(self):
        target = make_target()
        target.write_object(USER_A, b"z" * 640, class_id=3)
        target.array.fail_device(0)
        response = target.read_object(USER_A)
        assert response.sense is SenseCode.DATA_CORRUPTED

    def test_degraded_read_succeeds_for_protected_class(self):
        target = make_target()
        payload = b"z" * 640
        target.write_object(USER_A, payload, class_id=2)  # 2-parity
        target.array.fail_device(0)
        target.array.fail_device(1)
        response = target.read_object(USER_A)
        assert response.ok
        assert response.payload == payload


class TestFailStopDuringRead:
    """A device shot down by a fail-stop that fires mid-read degrades the read.

    The stop fires on the first fragment read; a later fragment of the same
    stripe on the newly failed device is served by the next survivor (a
    replica, or parity), never by raising.
    """

    @pytest.mark.parametrize("device", range(5))
    @pytest.mark.parametrize("class_id", [1, 2])
    def test_read_survives_a_stop_it_triggers(self, class_id, device):
        array = FlashArray(
            num_devices=5, device_capacity=10**6, chunk_size=256, model=ZERO_COST
        )
        target = OsdTarget(array, policy=reo_policy(0.2))
        target.create_partition(PARTITION_BASE)
        payload = bytes(range(256)) * 4
        assert target.write_object(USER_A, payload, class_id=class_id).ok
        chunks = [
            chunk for stripe in array.get_extent(USER_A).stripes for chunk in stripe.chunks
        ]
        FaultInjector(
            FaultPlan(seed=1, events=(FailStop(at_time=0.0, device=device),))
        ).attach(array)

        response = target.read_object(USER_A)

        assert not array.devices[device].is_available
        assert response.ok
        assert response.payload == payload
        # A healthy read pulls exactly the DATA fragments; one of them was
        # on the stopped device iff the read had to go around it.
        skipped = any(
            chunk.kind is ChunkKind.DATA and chunk.device_id == device for chunk in chunks
        )
        assert response.io.degraded == skipped


class TestClassification:
    def test_class_label_mirrored_on_attributes_page(self):
        # The label is the one attribute GetAttr answers, read from the record.
        target = make_target()
        target.write_object(USER_A, b"m" * 640, class_id=3)
        assert class_label(target, USER_A) == "3"
        target.set_class(USER_A, 2)
        assert class_label(target, USER_A) == "2"
        assert class_label(target, ObjectId(PARTITION_BASE, 0)) is None
        assert class_label(target, USER_B) is None

    def test_class_label_follows_the_class_through_overwrites(self):
        target = make_target()

        def label():
            info = target.get_info(USER_A)
            assert class_label(target, USER_A) == str(info.class_id)
            return info.class_id

        target.write_object(USER_A, b"m" * 640, class_id=3)
        assert label() == 3
        target.write_object(USER_A, b"n" * 640, class_id=1)  # class-changing overwrite
        assert label() == 1
        target.write_object(USER_A, b"o" * 640)  # class_id=None keeps the class
        assert label() == 1
        target.set_class(USER_A, 2)
        assert label() == 2

    def test_set_class_reencodes(self):
        target = make_target()
        target.write_object(USER_A, b"m" * 640, class_id=3)
        assert target.array.get_extent(USER_A).redundancy_bytes == 0
        response = target.set_class(USER_A, 2)
        assert response.ok
        assert target.get_info(USER_A).class_id == 2
        assert target.array.get_extent(USER_A).redundancy_bytes > 0

    def test_set_class_same_scheme_is_cheap(self):
        target = make_target()
        target.write_object(USER_A, b"m" * 640, class_id=0)
        response = target.set_class(USER_A, 1)  # both full replication
        assert response.ok
        assert response.io.chunks_written == 0

    def test_set_class_unknown_object(self):
        assert make_target().set_class(USER_A, 2).sense is SenseCode.FAIL

    def test_set_class_on_lost_object(self):
        target = make_target()
        target.write_object(USER_A, b"m" * 640, class_id=3)
        target.array.fail_device(0)
        response = target.set_class(USER_A, 2)
        assert response.sense is SenseCode.DATA_CORRUPTED

    def test_reclassification_survives_failure_afterwards(self):
        target = make_target()
        payload = b"m" * 640
        target.write_object(USER_A, payload, class_id=3)
        target.set_class(USER_A, 2)
        target.array.fail_device(0)
        assert target.read_object(USER_A).payload == payload


def make_full_target():
    """Five 8 KiB devices holding thirteen 3,000-byte class-3 objects.

    About 2 KB stay free: no further object fits, and neither does a
    re-encode of a stored one under a redundant scheme.
    """
    array = FlashArray(num_devices=5, device_capacity=8192, chunk_size=512, model=ZERO_COST)
    target = OsdTarget(array, policy=reo_like_policy)
    target.create_partition(PARTITION_BASE)
    oids = [ObjectId(PARTITION_BASE, 0x10005 + i) for i in range(14)]
    for oid in oids[:13]:
        assert target.write_object(oid, bytes([oid.oid & 0xFF]) * 3000, class_id=3).ok
    return target, oids


class TestDeviceFull:
    """A full device is answered with sense 0x64; nothing is left half done."""

    def test_new_object_that_does_not_fit(self):
        target, oids = make_full_target()
        response = target.write_object(oids[13], bytes(3000), class_id=3)
        assert response.sense is SenseCode.CACHE_FULL
        assert not target.exists(oids[13])
        assert oids[13] not in target.array

    def test_overwrite_that_does_not_fit_keeps_the_old_copy(self):
        target, oids = make_full_target()
        response = target.write_object(oids[0], bytes(9000))
        assert response.sense is SenseCode.CACHE_FULL
        assert target.get_info(oids[0]).size == 3000
        assert target.read_object(oids[0]).payload == bytes([oids[0].oid & 0xFF]) * 3000

    @pytest.mark.parametrize("class_id", [1, 2])
    @pytest.mark.parametrize("entry", ["target", "setid"])
    def test_reencode_that_does_not_fit_keeps_the_class(self, class_id, entry):
        target, oids = make_full_target()
        if entry == "target":
            response = target.set_class(oids[0], class_id)
        else:
            response = OsdInitiator(target).set_class(oids[0], class_id)
        assert response.sense is SenseCode.CACHE_FULL
        info = target.get_info(oids[0])
        assert info.class_id == 3
        assert class_label(target, oids[0]) == "3"
        assert target.array.get_extent(oids[0]).scheme == ParityScheme(0)



class TestWatermark:
    """The target admits stored bytes up to ``usable_bytes``, not to full devices.

    0x64 asks the initiator to evict; FAIL says no eviction helps.
    """

    @staticmethod
    def near_the_watermark():
        """10,000 bytes below the usable bytes, 110,000 below full devices."""
        target = make_target()
        oids = [ObjectId(PARTITION_BASE, 0x10100 + i) for i in range(51)]
        for oid in oids[:48]:
            assert target.write_object(oid, bytes(100_000), class_id=3).ok
        assert target.write_object(oids[48], bytes(85_000), class_id=3).ok
        assert target.write_object(oids[49], bytes(5_000), class_id=3).ok
        assert target.usable_bytes - target.array.used_bytes == 10_000
        assert target.array.free_bytes == 110_000
        return target, oids

    def test_write_past_the_watermark_answers_0x64(self):
        target, oids = self.near_the_watermark()
        response = target.write_object(oids[50], bytes(20_000), class_id=3)
        assert response.sense is SenseCode.CACHE_FULL
        assert not target.exists(oids[50])
        assert oids[50] not in target.array

    def test_same_size_overwrite_at_the_watermark_counts_the_old_copy_once(self):
        target, oids = self.near_the_watermark()
        assert target.write_object(oids[0], b"\1" * 100_000).ok
        assert target.usable_bytes - target.array.used_bytes == 10_000

    def test_overwrite_larger_than_the_free_bytes_answers_0x64_untouched(self):
        # Counted once, the old copy leaves room under the watermark, but
        # the new copy must land before the old one is dropped.
        target = make_target()
        assert target.write_object(USER_A, bytes(2_450_000), class_id=3).ok
        assert target.write_object(USER_B, bytes(2_400_000), class_id=3).ok
        writes = sum(device.stats.writes for device in target.array.devices)
        response = target.write_object(USER_A, b"\1" * 2_450_000)
        assert response.sense is SenseCode.CACHE_FULL
        assert sum(device.stats.writes for device in target.array.devices) == writes
        assert target.read_object(USER_A).payload == bytes(2_450_000)

    def test_reencode_past_the_watermark_answers_0x64(self):
        target, oids = self.near_the_watermark()
        response = target.set_class(oids[49], 1)
        assert response.sense is SenseCode.CACHE_FULL
        assert target.get_info(oids[49]).class_id == 3
        assert target.array.get_extent(oids[49]).scheme == ParityScheme(0)

    def test_object_larger_than_the_usable_bytes_fails(self):
        target = make_target()
        response = target.write_object(USER_A, bytes(int(target.usable_bytes) + 1), class_id=3)
        assert response.sense is SenseCode.FAIL
        assert not target.exists(USER_A)

    def test_reencode_larger_than_the_usable_bytes_fails(self):
        # Fully replicated, 1.5 MB stores 7.5 MB on five 1 MB devices.
        target = make_target()
        assert target.write_object(USER_A, bytes(1_500_000), class_id=3).ok
        response = target.set_class(USER_A, 1)
        assert response.sense is SenseCode.FAIL
        assert target.get_info(USER_A).class_id == 3
        assert target.array.get_extent(USER_A).scheme == ParityScheme(0)


class TestTooFewDevices:
    """A scheme wider than the online devices is answered with FAIL, not 0x64.

    Eviction cannot fix a layout, so the caller must not be told to evict.
    """

    @staticmethod
    def degraded_target(failed):
        target = make_target()
        assert target.write_object(USER_A, b"m" * 640, class_id=1).ok
        for device in failed:
            target.array.fail_device(device)
        return target

    def test_write_of_a_class_wider_than_the_online_devices(self):
        target = self.degraded_target(range(3))
        response = target.write_object(USER_B, b"x" * 10000, class_id=2)
        assert response.sense is SenseCode.FAIL
        assert not target.exists(USER_B)
        assert USER_B not in target.array

    def test_write_with_every_device_failed(self):
        target = self.degraded_target(range(5))
        response = target.write_object(USER_B, b"x" * 100, class_id=3)
        assert response.sense is SenseCode.FAIL
        assert not target.exists(USER_B)

    @pytest.mark.parametrize("entry", ["target", "setid"])
    def test_reencode_wider_than_the_online_devices_keeps_the_class(self, entry):
        target = self.degraded_target(range(3))
        if entry == "target":
            response = target.set_class(USER_A, 2)
        else:
            response = OsdInitiator(target).set_class(USER_A, 2)
        assert response.sense is SenseCode.FAIL
        info = target.get_info(USER_A)
        assert info.class_id == 1
        assert class_label(target, USER_A) == "1"
        assert target.array.get_extent(USER_A).scheme == ReplicationScheme()
        assert target.read_object(USER_A).payload == b"m" * 640


class TestControlObject:
    def test_setid_message(self):
        target = make_target()
        target.write_object(USER_A, b"m" * 640, class_id=3)
        message = SetClassMessage(USER_A, 2)
        response = target.write_object(CONTROL_OBJECT, message.encode())
        assert response.ok
        assert target.get_info(USER_A).class_id == 2

    def test_query_healthy_object(self):
        target = make_target()
        target.write_object(USER_A, b"m" * 640, class_id=2)
        message = QueryMessage(USER_A, "R", 0, 640)
        response = target.write_object(CONTROL_OBJECT, message.encode())
        assert response.sense is SenseCode.OK

    def test_query_lost_object(self):
        target = make_target()
        target.write_object(USER_A, b"m" * 640, class_id=3)
        target.array.fail_device(0)
        message = QueryMessage(USER_A, "R", 0, 640)
        response = target.write_object(CONTROL_OBJECT, message.encode())
        assert response.sense is SenseCode.DATA_CORRUPTED

    def test_query_degraded_during_recovery(self):
        target = make_target()
        target.write_object(USER_A, b"m" * 640, class_id=2)
        target.array.fail_device(0)
        target.recovery_active = True
        sense = target.query(QueryMessage(USER_A, "R", 0, 640))
        assert sense is SenseCode.RECOVERY_STARTED

    def test_query_write_admission_cache_full(self):
        target = make_target()
        sense = target.query(QueryMessage(USER_B, "W", 0, 10**9))
        assert sense is SenseCode.CACHE_FULL

    def test_query_write_admission_redundancy_full(self):
        # A 1% reserve of 5 MB; fully replicated dirty writes fill it with
        # no cache manager involved, and removing them frees it again.
        target = make_target(policy=reo_policy(0.01))
        initiator = OsdInitiator(target)
        query = QueryMessage(USER_B, "W", 0, 10)
        assert target.query(query) is SenseCode.OK
        written = []
        for oid in range(0x10010, 0x10030):
            if target.array.redundancy_bytes >= target.budget.budget_bytes:
                break
            written.append(ObjectId(PARTITION_BASE, oid))
            initiator.write(written[-1], b"d" * 4096, class_id=1)
        assert target.query(query) is SenseCode.REDUNDANCY_FULL
        for object_id in written:
            assert initiator.remove(object_id).ok
            assert not target.exists(object_id)
        assert target.query(query) is SenseCode.OK

    def test_query_write_admission_ok(self):
        target = make_target()
        sense = target.query(QueryMessage(USER_B, "W", 0, 10))
        assert sense is SenseCode.OK

    def test_malformed_control_write_fails(self):
        target = make_target()
        response = target.write_object(CONTROL_OBJECT, b"#WAT#,1")
        assert response.sense is SenseCode.FAIL

    def test_query_unknown_object_read_fails(self):
        target = make_target()
        sense = target.query(QueryMessage(USER_A, "R", 0, 0))
        assert sense is SenseCode.FAIL
