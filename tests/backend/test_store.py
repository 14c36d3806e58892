"""Tests for the backend data store."""

import hashlib

import pytest

from repro.backend.store import BackendStore
from repro.errors import ObjectNotFoundError
from repro.flash.latency import ServiceTimeModel
from repro.sim.clock import SimClock


def make_store(model=None):
    return BackendStore(clock=SimClock(), model=model)


class TestCatalog:
    def test_register_and_size(self):
        store = make_store()
        store.register("a", 1234)
        assert "a" in store
        assert store.size_of("a") == 1234
        assert len(store) == 1

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            make_store().register("a", -1)

    def test_unknown_object_raises(self):
        with pytest.raises(ObjectNotFoundError):
            make_store().read("missing")

    def test_total_bytes(self):
        store = make_store()
        store.register("a", 100)
        store.register("b", 200)
        assert store.total_bytes == 300


class TestContent:
    def test_reads_are_deterministic(self):
        store = make_store()
        store.register("a", 4096)
        first, _ = store.read("a")
        second, _ = store.read("a")
        assert first == second
        assert len(first) == 4096

    def test_different_objects_have_different_content(self):
        store = make_store()
        store.register("a", 1024)
        store.register("b", 1024)
        assert store.read("a")[0] != store.read("b")[0]

    def test_payload_for_current_version_matches_read(self):
        store = make_store()
        store.register("a", 512)
        assert store.payload_for("a", store.version_of("a")) == store.read("a")[0]

    def test_write_changes_content(self):
        store = make_store()
        store.register("a", 512)
        before = store.read("a")[0]
        store.write("a", b"\x01" * 512)
        after = store.read("a")[0]
        assert before != after
        assert store.version_of("a") == 1

    def test_versioned_write_round_trips(self):
        store = make_store()
        store.register("a", 256)
        content = store.payload_for("a", 7)
        store.write("a", content, version=7)
        assert store.read("a")[0] == content

    def test_write_creates_unregistered_object(self):
        store = make_store()
        store.write("new", b"xyz")
        assert store.size_of("new") == 3

    def test_write_can_resize(self):
        store = make_store()
        store.register("a", 100)
        store.write("a", b"z" * 50)
        assert store.size_of("a") == 50
        assert len(store.read("a")[0]) == 50


class TestGenerator:
    """Content comes from the seeded generator's raw 64-bit words."""

    def test_content_is_pinned_across_processes(self):
        store = make_store()
        store.register("obj-17", 44_000)
        assert store.payload_for("obj-17", 0)[:8].hex() == "fecf3a4baa133ede"
        assert hashlib.sha256(store.payload_for("obj-17", 3)).hexdigest()[:16] == "c8b1f4c1f252588a"

    @pytest.mark.parametrize(
        "name,version,size,sha256",
        [
            ("obj-17", 0, 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
            ("obj-17", 1, 1, "6922e93e3827642ce4b883c756b31abf80036649d3614bf5fcb3adda43b8ea32"),
            ("a", 2, 7, "1b66d555e1b1b7a6de2fd16082ed78fafb352c8f3cc6c65d70ebb98a68fc6d1c"),
            ("a", 2, 13, "9a6aa0a081930e2df65601414d40940ef9251155f935bbedd8ff65e2f25154e9"),
            ("key/0042", 9, 4_097, "9f60be9ec609ed576689705af233941e533cd0a08a43cab81871917cccf31e5f"),
            ("obj-17", 3, 44_000, "c8b1f4c1f252588a725ae47df8d5e5768973d415468ea5109632d7f6eb82b638"),
        ],
    )
    def test_bytes_are_pinned(self, name, version, size, sha256):
        # Recorded when payloads came from ``default_rng(seed).bit_generator``;
        # drawing from the bare PCG64 must give the same words.
        store = make_store()
        store.register(name, size)
        assert hashlib.sha256(store.payload_for(name, version)).hexdigest() == sha256

    def test_stable_across_calls_and_distinct_across_names_and_versions(self):
        store = make_store()
        store.register("a", 1024)
        store.register("b", 1024)
        assert store.payload_for("a", 1) == store.payload_for("a", 1)
        assert store.payload_for("a", 1) != store.payload_for("a", 2)
        assert store.payload_for("a", 1) != store.payload_for("b", 1)

    @pytest.mark.parametrize("size", [0, 1, 7, 8, 9, 44_000])
    def test_length_is_the_registered_size(self, size):
        store = make_store()
        store.register("a", size)
        assert len(store.payload_for("a", 0)) == size
        assert len(store.read("a")[0]) == size

    def test_a_prefix_does_not_depend_on_the_size(self):
        store = make_store()
        store.register("a", 44_000)
        whole = store.payload_for("a", 5)
        for size in (1, 7, 8, 9, 4_097):
            store.register("a", size)
            assert store.payload_for("a", 5) == whole[:size]


class TestLatency:
    def test_read_latency_uses_model(self):
        model = ServiceTimeModel(1.0, 2.0, 100.0, 100.0)
        store = make_store(model=model)
        store.register("a", 100)
        _, elapsed = store.read("a")
        assert elapsed == pytest.approx(1.0 + 1.0)

    def test_requests_queue_behind_each_other(self):
        # A single spindle: back-to-back requests serialize.
        model = ServiceTimeModel(1.0, 1.0, 1e12, 1e12)
        store = make_store(model=model)
        store.register("a", 10)
        _, first = store.read("a")
        _, second = store.read("a")
        assert first == pytest.approx(1.0)
        assert second == pytest.approx(2.0)

    def test_queue_drains_as_clock_advances(self):
        model = ServiceTimeModel(1.0, 1.0, 1e12, 1e12)
        store = make_store(model=model)
        store.register("a", 10)
        store.read("a")
        store.clock.advance(5.0)
        _, elapsed = store.read("a")
        assert elapsed == pytest.approx(1.0)

    def test_counters(self):
        store = make_store()
        store.register("a", 100)
        store.read("a")
        store.write("a", b"x" * 100)
        assert store.reads == 1
        assert store.writes == 1
        assert store.bytes_read == 100
        assert store.bytes_written == 100
