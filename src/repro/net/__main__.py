"""CLI: ``python -m repro.net`` — run a standalone OSD server until interrupted."""

from __future__ import annotations

import argparse
import asyncio
from typing import Optional

from repro.flash.array import FlashArray
from repro.flash.stripe import ParityScheme
from repro.net.server import OsdServer
from repro.osd.target import OsdTarget
from repro.osd.types import PARTITION_BASE


def _build_target(num_devices: int, device_mb: int, chunk_kb: int, parity: int) -> OsdTarget:
    array = FlashArray(
        num_devices=num_devices,
        device_capacity=device_mb * 1024 * 1024,
        chunk_size=chunk_kb * 1024,
    )
    target = OsdTarget(array, policy=lambda _cid: ParityScheme(parity))
    target.create_partition(PARTITION_BASE)
    return target


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.net",
        description="Serve an in-memory OSD target over TCP.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7003)
    parser.add_argument("--devices", type=int, default=5)
    parser.add_argument("--device-mb", type=int, default=64)
    parser.add_argument("--chunk-kb", type=int, default=64)
    parser.add_argument("--parity", type=int, default=1)
    args = parser.parse_args(argv)

    async def _serve() -> None:
        target = _build_target(args.devices, args.device_mb, args.chunk_kb, args.parity)
        server = OsdServer(target, args.host, args.port)
        await server.start()
        print(f"osd server listening on {server.host}:{server.port} (Ctrl-C to stop)")
        try:
            await asyncio.Event().wait()
        finally:
            await server.shutdown()
            print("osd server drained and closed")

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
