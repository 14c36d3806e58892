"""Write coalescing: pipelined traffic shares flushes on both ends.

The per-connection :class:`~repro.net.flush.StreamFlusher` batches every
PDU enqueued in one event-loop tick into a single ``writelines``. These
tests pin the batching behaviour directly on the flusher (against a fake
transport) and end-to-end through the server's ``flushes`` counter.
"""

import asyncio

import pytest

from repro.flash.array import FlashArray
from repro.flash.latency import ZERO_COST
from repro.flash.stripe import ParityScheme
from repro.net.client import AsyncOsdClient
from repro.net.flush import HIGH_WATER_BYTES, StreamFlusher
from repro.net.server import OsdServer
from repro.osd.target import OsdTarget
from repro.osd.types import PARTITION_BASE, ObjectId

pytestmark = pytest.mark.net


def make_target():
    array = FlashArray(
        num_devices=5,
        device_capacity=256 * 1024 * 1024,
        chunk_size=4096,
        model=ZERO_COST,
    )
    target = OsdTarget(array, policy=lambda _cid: ParityScheme(1))
    target.create_partition(PARTITION_BASE)
    return target


def run(coro):
    return asyncio.run(coro)


class _RecordingTransport:
    """Just enough of an ``asyncio.Transport`` for the flusher: records batches."""

    def __init__(self):
        self.batches = []

    def writelines(self, parts):
        self.batches.append([bytes(p) for p in parts])

    def is_closing(self):
        return False


class TestStreamFlusher:
    def test_sends_enqueued_same_tick_share_one_flush(self):
        async def scenario():
            transport = _RecordingTransport()
            flusher = StreamFlusher(transport)
            for index in range(10):
                flusher.send([b"part-%d" % index])
            assert transport.batches == []  # nothing leaves before the tick ends
            await asyncio.sleep(0)  # the flush callback runs
            assert flusher.sends == 10
            assert flusher.flushes == 1
            assert transport.batches == [[b"part-%d" % index for index in range(10)]]

        run(scenario())

    def test_high_water_pushes_early(self):
        async def scenario():
            transport = _RecordingTransport()
            flusher = StreamFlusher(transport)
            payload = bytes(HIGH_WATER_BYTES * 3 // 4)
            flusher.send([payload])
            assert transport.batches == []
            flusher.send([payload])  # crosses the mark: pushed immediately,
            assert transport.batches == [[payload, payload]]  # not at end of tick
            await asyncio.sleep(0)
            assert transport.batches == [[payload, payload]]  # and only once
            assert flusher.flushes == 1

        run(scenario())

    def test_every_writelines_counts_as_one_flush(self):
        """Early pushes are flushes too: three sends at the mark in one tick
        make three writelines and three flushes; small sends still share one."""

        async def scenario():
            transport = _RecordingTransport()
            flushed = []
            flusher = StreamFlusher(transport, on_flush=lambda: flushed.append(1))
            for index in range(3):
                flusher.send([bytes([index]) * HIGH_WATER_BYTES])
            await asyncio.sleep(0)
            assert flusher.flushes == 3 == len(transport.batches) == len(flushed)
            for index in range(5):
                flusher.send([b"part-%d" % index])
            await asyncio.sleep(0)
            assert flusher.flushes == 4 == len(transport.batches) == len(flushed)

        run(scenario())

    def test_close_pushes_the_outbox_and_refuses_more(self):
        async def scenario():
            transport = _RecordingTransport()
            flushed = []
            flusher = StreamFlusher(transport, on_flush=lambda: flushed.append(1))
            flusher.send([b"queued"])
            flusher.close()
            assert transport.batches == [[b"queued"]]  # delivered, synchronously
            flusher.send([b"late"])
            flusher.close()
            await asyncio.sleep(0)  # the scheduled tick finds the flusher closed
            assert transport.batches == [[b"queued"]]
            assert flusher.sends == 1
            assert flushed == [1]  # the push on close was the one writelines

        run(scenario())


class TestEndToEndCoalescing:
    def test_pipelined_commands_need_fewer_server_flushes(self):
        """N pipelined responses leave the server in < N flushes."""
        commands_issued = 40

        async def scenario():
            async with OsdServer(make_target()) as server:
                async with AsyncOsdClient(
                    "127.0.0.1", server.port, pool_size=1
                ) as client:
                    oid = ObjectId(PARTITION_BASE, 0x70001)
                    await client.write(oid, b"seed payload")
                    server.stats.flushes = 0
                    await asyncio.gather(
                        *(client.read(oid) for _ in range(commands_issued))
                    )
                    # One connection, commands issued in one tick: the
                    # server coalesces responses into far fewer flushes.
                    assert server.stats.commands >= commands_issued
                    assert 0 < server.stats.flushes < commands_issued
                    # Client side is symmetric: requests shared batches.
                    conn = client._pool[0]
                    assert conn.flusher.flushes < conn.flusher.sends

        run(scenario())
