#!/usr/bin/env python3
"""An exofs-style file system over the object store (paper §II-A).

The paper's stack mounts exofs — directories and files stored as OSD user
objects — on the initiator. This example builds that namespace over a
Reo-protected array and demonstrates the payoff of semantic classification
at the file-system level: directory metadata (Class 0) and a journal file
tagged dirty (Class 1) survive a four-of-five device wipe-out that destroys
the bulk data.

Run:  python examples/exofs_filesystem.py
"""

from repro.core.policy import reo_policy
from repro.errors import OsdError
from repro.flash.array import FlashArray
from repro.osd.exofs import ExofsNamespace, format_volume, read_super_block
from repro.osd.target import OsdTarget
from repro.units import KiB, MiB


def main() -> None:
    array = FlashArray(
        num_devices=5, device_capacity=16 * MiB, chunk_size=16 * KiB
    )
    target = OsdTarget(array, policy=reo_policy(0.20))
    format_volume(target)
    fs = ExofsNamespace(target)

    print("super block:", read_super_block(target))

    fs.mkdir("/var")
    fs.mkdir("/var/log")
    fs.create_file("/var/log/journal", b"txn-0001: commit\n" * 100, class_id=1)
    fs.create_file("/var/bulk.dat", bytes(256 * KiB), class_id=3)
    fs.create_file("/var/index.db", b"\x01" * (64 * KiB), class_id=2)
    print("/var:", fs.listdir("/var"))
    print("/var/log:", fs.listdir("/var/log"))

    print("\n== wiping four of five devices ==")
    for device_id in range(4):
        array.fail_device(device_id)

    # The namespace and the dirty journal are fully replicated: still there.
    print("/var listing after wipe-out:", fs.listdir("/var"))
    journal = fs.read_file("/var/log/journal")
    print(f"journal intact: {len(journal)} bytes, first line "
          f"{journal.splitlines()[0].decode()!r}")

    # The hot index survives up to two failures only; bulk data none.
    for path in ("/var/index.db", "/var/bulk.dat"):
        try:
            fs.read_file(path)
            print(f"{path}: readable")
        except OsdError:
            print(f"{path}: lost (as its class's protection level dictates)")


if __name__ == "__main__":
    main()
