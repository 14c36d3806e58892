"""The server's one serving path and its one gate.

Commands execute inline in the protocol callback and a reply is either
sent, held on a timer or dropped with the connection, so serving creates
no asyncio task, with or without a chaos hook; the frame loop stops (and
the socket pauses) while a connection holds ``max_in_flight`` replies or
its transport reports write pressure. These tests pin the task count, the
strict per-connection bound, half-close, shutdown past the drain timeout
and the slow-reader bound.
"""

import asyncio
import socket

import pytest

from repro.faults.netplan import LinkFailSlow, NetFaultPlan, NetPartition, ShardChaos
from repro.net import server as server_module
from repro.net.client import AsyncOsdClient
from repro.net.server import OsdServer
from repro.osd import commands, wire
from repro.osd.transport import FRAME_PREFIX_BYTES, frame_length
from repro.osd.types import PARTITION_BASE, ObjectId

from tests.net.test_server_client import framed, make_target, run, until

pytestmark = pytest.mark.net

OIDS = [ObjectId(PARTITION_BASE, 0x20000 + index) for index in range(8)]


async def read_reply(reader):
    prefix = await reader.readexactly(FRAME_PREFIX_BYTES)
    return wire.decode_response_pdu(await reader.readexactly(frame_length(prefix)))


def test_hook_free_serving_creates_no_task():
    async def scenario():
        async with OsdServer(make_target()) as server:
            tasks = len(asyncio.all_tasks())
            async with AsyncOsdClient("127.0.0.1", server.port, pool_size=2) as client:
                for index, oid in enumerate(OIDS):
                    assert (await client.write(oid, b"v%d" % index, class_id=3)).ok
                reads = await asyncio.gather(*(client.read(oid) for oid in OIDS))
                assert [payload for payload, _ in reads] == [
                    b"v%d" % index for index in range(len(OIDS))
                ]
                assert server.stats.connections_active == 2
                # Two live connections on each end, and nothing runs for them.
                assert len(asyncio.all_tasks()) == tasks

    run(scenario())


def test_chaos_hooked_serving_creates_no_task():
    chaos = ShardChaos(
        NetFaultPlan(
            events=(
                NetPartition(shards=(0,), from_op=0, until_op=1),
                LinkFailSlow(shard=0, delay=0.05, from_op=1),
            )
        )
    )

    async def scenario():
        async with OsdServer(make_target(), fault_hook=chaos.hook_for(0)) as server:
            tasks = len(asyncio.all_tasks())
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(framed(commands.Write(OIDS[0], b"dropped", 3), 1))
            assert await reader.read() == b""  # executed, severed unanswered
            writer.close()
            assert len(asyncio.all_tasks()) == tasks

            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(
                b"".join(
                    framed(commands.Write(oid, b"held", 3), seq)
                    for seq, oid in enumerate(OIDS[1:3], start=1)
                )
            )
            await until(lambda: chaos.delays.get(0) == 2)
            # Both replies are held on timers; nothing runs for them.
            assert len(asyncio.all_tasks()) == tasks
            replies = [await read_reply(reader) for _ in range(2)]
            assert all(response.ok for _, response in replies)
            writer.close()
            assert chaos.drops == {0: 1}
            assert len(asyncio.all_tasks()) == tasks

    run(scenario())


def test_per_connection_bound_is_strict_for_pipelined_commands():
    async def scenario():
        def hold_reads(command, _seq):
            return 0.05 if isinstance(command, commands.Read) else None

        server = OsdServer(make_target(), max_in_flight=2, fault_hook=hold_reads)
        async with server:
            async with AsyncOsdClient(
                "127.0.0.1", server.port, pool_size=1, timeout=5.0
            ) as client:
                for index, oid in enumerate(OIDS):
                    await client.write(oid, b"v%d" % index, class_id=3)
                reads = await asyncio.gather(*(client.read(oid) for oid in OIDS))
                assert [payload for payload, _ in reads] == [
                    b"v%d" % index for index in range(len(OIDS))
                ]
                # Eight reads arrived in one chunk; never more than two
                # were executed-but-unanswered, the rest waited undecoded.
                assert server.stats.max_in_flight == 2
                assert server.stats.in_flight == 0

    run(scenario())


def test_half_close_finishes_gated_frames_then_closes():
    async def scenario():
        target = make_target()
        server = OsdServer(target, max_in_flight=1, fault_hook=lambda _c, _s: 0.03)
        async with server:
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(
                b"".join(
                    framed(commands.Write(oid, b"half-closed", 3), seq)
                    for seq, oid in enumerate(OIDS[:3], start=1)
                )
            )
            writer.write_eof()
            replies = [await read_reply(reader) for _ in range(3)]
            assert [seq for seq, _ in replies] == [1, 2, 3]
            assert all(response.ok for _, response in replies)
            assert all(target.exists(oid) for oid in OIDS[:3])
            assert await reader.read() == b""  # then the server hangs up
            writer.close()
            await until(lambda: server.stats.connections_active == 0)

    run(scenario())


def test_shutdown_past_drain_timeout_abandons_held_replies(monkeypatch):
    # The real 5 s drain would only slow the test down; the server reads
    # the constant when it shuts down.
    monkeypatch.setattr(server_module, "DRAIN_TIMEOUT_S", 0.05)

    async def scenario():
        server = OsdServer(make_target(), fault_hook=lambda _c, _s: 5.0)
        await server.start()
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        writer.write(framed(commands.Write(OIDS[0], b"never acknowledged", 3), 1))
        await until(lambda: server.stats.in_flight == 1)
        await server.shutdown()
        # The timer is cancelled and the command booked before we return.
        assert server.stats.in_flight == 0
        assert server.stats.commands == 1
        assert await reader.read() == b""
        writer.close()

    run(scenario())


@pytest.mark.net(timeout=120)
def test_slow_reader_is_bounded_by_the_write_gate():
    """A peer that pipelines reads and does not read the answers."""
    reads = 400
    body = bytes(range(256)) * 1024  # 256 KiB

    async def scenario():
        loop = asyncio.get_running_loop()
        async with OsdServer(make_target()) as server:
            async with AsyncOsdClient("127.0.0.1", server.port) as client:
                assert (await client.write(OIDS[0], body, class_id=3)).ok
            await until(lambda: server.stats.connections_active == 0)
            executed = server.stats.commands

            sock = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.setblocking(False)
            await loop.sock_connect(sock, ("127.0.0.1", server.port))
            await loop.sock_sendall(
                sock,
                b"".join(framed(commands.Read(OIDS[0]), seq) for seq in range(reads)),
            )
            # Idle peer: the server runs until write pressure closes the
            # gate, then stops with the other frames undecoded.
            await until(lambda: server.stats.commands > executed)
            await asyncio.sleep(0.2)
            (conn,) = server._connections
            assert server.stats.commands - executed < reads
            assert conn.transport.get_write_buffer_size() < 1024 * 1024

            # Once the peer reads, the gate reopens: everything arrives.
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4 * 1024 * 1024)
            reader, writer = await asyncio.open_connection(sock=sock)
            for seq in range(reads):
                got, response = await read_reply(reader)
                assert got == seq and response.payload == body
            assert server.stats.commands - executed == reads
            writer.close()

    run(scenario())
