"""Tests for the exofs-like path namespace over OSD."""

import pytest

from repro.errors import OsdError
from repro.flash.array import FlashArray
from repro.flash.latency import ZERO_COST
from repro.flash.stripe import ChunkKind, ParityScheme, ReplicationScheme
from repro.osd.exofs import ExofsNamespace, format_volume
from repro.osd.target import OsdTarget


def reo_like_policy(class_id):
    if class_id in (0, 1):
        return ReplicationScheme()
    if class_id == 2:
        return ParityScheme(2)
    return ParityScheme(0)


def make_namespace():
    array = FlashArray(num_devices=5, device_capacity=10**6, chunk_size=64, model=ZERO_COST)
    target = OsdTarget(array, policy=reo_like_policy)
    format_volume(target)
    return array, target, ExofsNamespace(target)


class TestSetup:
    def test_requires_formatted_volume(self):
        array = FlashArray(num_devices=5, device_capacity=10**6, chunk_size=64, model=ZERO_COST)
        target = OsdTarget(array, policy=reo_like_policy)
        with pytest.raises(OsdError):
            ExofsNamespace(target)

    def test_empty_root(self):
        _array, _target, fs = make_namespace()
        assert fs.listdir("/") == []


class TestFiles:
    def test_create_read_roundtrip(self):
        _array, _target, fs = make_namespace()
        fs.create_file("/hello.txt", b"hello exofs")
        assert fs.read_file("/hello.txt") == b"hello exofs"
        assert fs.listdir("/") == ["hello.txt"]

    def test_duplicate_create_rejected(self):
        _array, _target, fs = make_namespace()
        fs.create_file("/a", b"1")
        with pytest.raises(OsdError):
            fs.create_file("/a", b"2")

    def test_missing_file(self):
        _array, _target, fs = make_namespace()
        with pytest.raises(OsdError):
            fs.read_file("/nope")
        assert not fs.exists("/nope")

    def test_remove_file(self):
        _array, _target, fs = make_namespace()
        fs.create_file("/a", b"x")
        fs.remove("/a")
        assert not fs.exists("/a")
        assert fs.listdir("/") == []

    def test_file_class_id_honoured(self):
        array, target, fs = make_namespace()
        file_id = fs.create_file("/hot.bin", b"h" * 320, class_id=2)
        assert target.get_info(file_id).class_id == 2
        extent = array.get_extent(file_id)
        assert any(c.kind is ChunkKind.PARITY for s in extent.stripes for c in s.chunks)


class TestDirectories:
    def test_mkdir_and_nesting(self):
        _array, _target, fs = make_namespace()
        fs.mkdir("/var")
        fs.mkdir("/var/cache")
        fs.create_file("/var/cache/obj", b"deep")
        assert fs.read_file("/var/cache/obj") == b"deep"
        assert fs.listdir("/var") == ["cache"]

    def test_mkdir_requires_parent(self):
        _array, _target, fs = make_namespace()
        with pytest.raises(OsdError):
            fs.mkdir("/no/such/parent")

    def test_remove_nonempty_dir_rejected(self):
        _array, _target, fs = make_namespace()
        fs.mkdir("/d")
        fs.create_file("/d/f", b"x")
        with pytest.raises(OsdError):
            fs.remove("/d")
        fs.remove("/d/f")
        fs.remove("/d")
        assert not fs.exists("/d")

    def test_exists_on_directory(self):
        _array, _target, fs = make_namespace()
        fs.mkdir("/d")
        assert fs.exists("/d")

    def test_directories_are_metadata_class(self):
        _array, target, fs = make_namespace()
        directory_id = fs.mkdir("/meta")
        assert target.get_info(directory_id).class_id == 0


class TestErrorPaths:
    def test_empty_path_rejected(self):
        _array, _target, fs = make_namespace()
        with pytest.raises(OsdError):
            fs.create_file("/", b"x")
        with pytest.raises(OsdError):
            fs.mkdir("//")

    def test_file_used_as_directory(self):
        _array, _target, fs = make_namespace()
        fs.create_file("/f", b"x")
        with pytest.raises(OsdError):
            fs.create_file("/f/child", b"y")

    def test_remove_missing_entry(self):
        _array, _target, fs = make_namespace()
        with pytest.raises(OsdError):
            fs.remove("/nope")

    def test_lookup_directory_as_file_fails(self):
        _array, _target, fs = make_namespace()
        fs.mkdir("/d")
        with pytest.raises(OsdError):
            fs.read_file("/d")


class TestReliability:
    def test_namespace_survives_four_failures(self):
        # Directories are Class 0 (replicated); a cold file is not.
        array, _target, fs = make_namespace()
        fs.mkdir("/d")
        fs.create_file("/d/cold", b"c" * 320, class_id=3)
        fs.create_file("/d/dirty", b"d" * 320, class_id=1)
        for device_id in range(4):
            array.fail_device(device_id)
        # The namespace itself and the replicated file remain readable.
        assert fs.listdir("/d") == ["cold", "dirty"]
        assert fs.read_file("/d/dirty") == b"d" * 320
        with pytest.raises(OsdError):
            fs.read_file("/d/cold")
