"""Minimal exofs-like volume layout (paper §II-A, Table I).

In the real stack, the exofs file system on the initiator stores its super
block, device table, and root directory as reserved objects in partition
``0x10000``. Formatting a Reo volume creates the same layout here, tagging
the reserved objects as Class 0 (system metadata) so they receive the
strongest protection (full replication across all devices — paper §IV-C.4
compares this with how ext4 replicates superblocks).
"""

from __future__ import annotations

import json
from typing import Dict

from repro.errors import OsdError
from repro.osd.sense import SenseCode
from repro.osd.target import OsdTarget
from repro.osd.types import (
    DEVICE_TABLE,
    PARTITION_BASE,
    ROOT_DIRECTORY,
    SUPER_BLOCK,
    ObjectId,
    ObjectKind,
)

__all__ = [
    "ExofsNamespace",
    "format_volume",
    "read_device_table",
    "read_super_block",
]

_EXOFS_MAGIC = "exofs-reo"
_VERSION = 1
#: OID of the first directory or file a namespace allocates.
FIRST_FILE_OID = 0x100000


def _super_block_payload(target: OsdTarget) -> bytes:
    content = {
        "magic": _EXOFS_MAGIC,
        "version": _VERSION,
        "chunk_size": target.array.chunk_size,
        "num_devices": target.array.width,
    }
    return json.dumps(content, sort_keys=True).encode("ascii")


def _device_table_payload(target: OsdTarget) -> bytes:
    devices = [
        {
            "device_id": device.device_id,
            "capacity_bytes": device.capacity_bytes,
            "state": device.state.value,
            "generation": device.generation,
        }
        for device in target.array.devices
    ]
    return json.dumps({"devices": devices}, sort_keys=True).encode("ascii")


def _root_directory_payload() -> bytes:
    # An empty root directory: no entries yet. The paper notes this is the
    # largest metadata object at 4 KB; we store the logical content only.
    return json.dumps({"entries": {}}, sort_keys=True).encode("ascii")


def format_volume(target: OsdTarget) -> None:
    """Create partition 0x10000 and the reserved Class-0 metadata objects.

    Raises:
        OsdError: the volume is already formatted or a metadata write fails.
    """
    if target.has_partition(PARTITION_BASE):
        raise OsdError("volume is already formatted")
    response = target.create_partition(PARTITION_BASE)
    if not response.ok:
        raise OsdError("failed to create partition 0x10000")
    metadata: Dict[ObjectId, bytes] = {
        SUPER_BLOCK: _super_block_payload(target),
        DEVICE_TABLE: _device_table_payload(target),
        ROOT_DIRECTORY: _root_directory_payload(),
    }
    for object_id, payload in metadata.items():
        response = target.write_object(
            object_id, payload, class_id=0, kind=ObjectKind.COLLECTION
        )
        if response.sense is not SenseCode.OK:
            raise OsdError(f"failed to write metadata object {object_id}")


class ExofsNamespace:
    """A path-based file namespace over OSD objects (paper §II-A).

    In exofs, "all the file system metadata (e.g., superblock, inode),
    regular files, and directories are stored in the OSD in the form of user
    objects". This class reproduces that mapping:

    - a **directory** is a collection-kind object holding a JSON table of
      ``name -> OID`` entries, classified as system metadata (Class 0) so it
      is fully replicated;
    - a **file** is a user object holding raw bytes, classified by the
      caller (Class 3 by default).

    The root directory is the reserved exofs object (Table I). Paths are
    ``/``-separated; all operations resolve components through directory
    objects, so every lookup is a real OSD read.
    """

    def __init__(self, target: OsdTarget) -> None:
        if not target.has_partition(PARTITION_BASE):
            raise OsdError("volume is not formatted; call format_volume first")
        self.target = target
        self._next_oid = FIRST_FILE_OID

    # ------------------------------------------------------------------
    # Path plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _split(path: str):
        parts = [part for part in path.split("/") if part]
        if not parts:
            raise OsdError("path must name at least one component")
        return parts

    def _read_directory(self, object_id: ObjectId) -> dict:
        response = self.target.read_object(object_id)
        if not response.ok or response.payload is None:
            raise OsdError(f"directory object {object_id} unreadable")
        return json.loads(response.payload)

    def _write_directory(self, object_id: ObjectId, table: dict) -> None:
        payload = json.dumps(table, sort_keys=True).encode("ascii")
        response = self.target.write_object(
            object_id, payload, class_id=0, kind=ObjectKind.COLLECTION
        )
        if not response.ok:
            raise OsdError(f"directory object {object_id} unwritable")

    def _resolve_dir(self, parts) -> ObjectId:
        """Walk directory components; returns the directory object id."""
        current = ROOT_DIRECTORY
        for component in parts:
            table = self._read_directory(current)
            entry = table["entries"].get(component)
            if entry is None or entry["type"] != "dir":
                raise OsdError(f"no such directory: {component!r}")
            current = ObjectId(PARTITION_BASE, int(entry["oid"]))
        return current

    def _allocate(self) -> ObjectId:
        object_id = ObjectId(PARTITION_BASE, self._next_oid)
        self._next_oid += 1
        return object_id

    # ------------------------------------------------------------------
    # Directories
    # ------------------------------------------------------------------
    def mkdir(self, path: str) -> ObjectId:
        """Create a directory; parents must already exist."""
        parts = self._split(path)
        parent_id = self._resolve_dir(parts[:-1])
        table = self._read_directory(parent_id)
        name = parts[-1]
        if name in table["entries"]:
            raise OsdError(f"{path!r} already exists")
        directory_id = self._allocate()
        self._write_directory(directory_id, {"entries": {}})
        table["entries"][name] = {"type": "dir", "oid": directory_id.oid}
        self._write_directory(parent_id, table)
        return directory_id

    def listdir(self, path: str = "/"):
        """Entry names in a directory, sorted."""
        parts = [part for part in path.split("/") if part]
        directory_id = self._resolve_dir(parts)
        return sorted(self._read_directory(directory_id)["entries"])

    # ------------------------------------------------------------------
    # Files
    # ------------------------------------------------------------------
    def create_file(self, path: str, data: bytes, class_id: int = 3) -> ObjectId:
        """Create a file object and link it into its directory."""
        parts = self._split(path)
        parent_id = self._resolve_dir(parts[:-1])
        table = self._read_directory(parent_id)
        name = parts[-1]
        if name in table["entries"]:
            raise OsdError(f"{path!r} already exists")
        file_id = self._allocate()
        response = self.target.write_object(file_id, data, class_id=class_id)
        if not response.ok:
            raise OsdError(f"cannot write file object for {path!r}")
        table["entries"][name] = {"type": "file", "oid": file_id.oid}
        self._write_directory(parent_id, table)
        return file_id

    def lookup(self, path: str) -> ObjectId:
        """Resolve a *file* path to its object id (directories are rejected)."""
        parts = self._split(path)
        parent_id = self._resolve_dir(parts[:-1])
        entry = self._read_directory(parent_id)["entries"].get(parts[-1])
        if entry is None or entry["type"] != "file":
            raise OsdError(f"no such file: {path!r}")
        return ObjectId(PARTITION_BASE, int(entry["oid"]))

    def read_file(self, path: str) -> bytes:
        response = self.target.read_object(self.lookup(path))
        if not response.ok or response.payload is None:
            raise OsdError(f"file {path!r} unreadable")
        return response.payload

    def remove(self, path: str) -> None:
        """Unlink a file or an *empty* directory."""
        parts = self._split(path)
        parent_id = self._resolve_dir(parts[:-1])
        table = self._read_directory(parent_id)
        entry = table["entries"].get(parts[-1])
        if entry is None:
            raise OsdError(f"no such entry: {path!r}")
        object_id = ObjectId(PARTITION_BASE, int(entry["oid"]))
        if entry["type"] == "dir" and self._read_directory(object_id)["entries"]:
            raise OsdError(f"directory {path!r} is not empty")
        self.target.remove_object(object_id)
        del table["entries"][parts[-1]]
        self._write_directory(parent_id, table)

    def exists(self, path: str) -> bool:
        try:
            self.lookup(path)
            return True
        except OsdError:
            pass
        try:
            self._resolve_dir(self._split(path))
            return True
        except OsdError:
            return False


def read_super_block(target: OsdTarget) -> dict:
    """Decode the super block object; raises if missing or corrupted."""
    response = target.read_object(SUPER_BLOCK)
    if not response.ok or response.payload is None:
        raise OsdError("super block unreadable")
    return json.loads(response.payload)


def read_device_table(target: OsdTarget) -> dict:
    """Decode the device table object; raises if missing or corrupted."""
    response = target.read_object(DEVICE_TABLE)
    if not response.ok or response.payload is None:
        raise OsdError("device table unreadable")
    return json.loads(response.payload)
