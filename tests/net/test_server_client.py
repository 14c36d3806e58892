"""Integration tests: the asyncio OSD server + pooled initiator client.

Covers the service-layer acceptance criteria: ≥8 concurrent clients
issuing ≥500 mixed read/write commands over real localhost sockets with
zero lost or corrupted responses, and injected faults (dropped connection
mid-request, responses delayed past the client timeout) recovered by the
retry path without surfacing errors for idempotent commands.
"""

import asyncio
import mmap
import socket

import pytest

from repro.errors import WireError
from repro.flash.array import FlashArray
from repro.flash.latency import ZERO_COST
from repro.flash.stripe import ParityScheme
from repro.net.client import AsyncOsdClient, OsdServiceError
from repro.net.retry import NO_RETRY, RetryPolicy
from repro.net.server import OsdServer
from repro.osd import commands, wire
from repro.osd.sense import SenseCode
from repro.osd.target import OsdTarget
from repro.osd.transport import FRAME_PREFIX_BYTES, frame_length, frame_parts
from repro.osd.types import PARTITION_BASE, ObjectId

from tests.closed_loop import run_closed_loop
from tests.osd.test_wire_properties import RETIRED_COMMANDS

pytestmark = pytest.mark.net

OID_A = ObjectId(PARTITION_BASE, 0x10005)
OID_B = ObjectId(PARTITION_BASE, 0x10006 + 1)


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


def framed(command, seq):
    """A command framed the way the client's send path frames it."""
    return b"".join(frame_parts(wire.encode_command_parts(command, seq=seq)))


async def until(predicate, timeout=5.0):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        assert loop.time() < deadline, "condition never became true"
        await asyncio.sleep(0.005)


# ----------------------------------------------------------------------
# Basic service
# ----------------------------------------------------------------------
class TestBasicService:
    def test_data_path_round_trip(self):
        async def scenario():
            async with OsdServer(make_target()) as server:
                async with AsyncOsdClient("127.0.0.1", server.port) as client:
                    write = await client.write(OID_A, b"object over tcp", class_id=2)
                    assert write.ok
                    payload, read = await client.read(OID_A)
                    assert read.ok and payload == b"object over tcp"
                    update = await client.update(OID_A, 12, b"TCP")
                    assert update.ok
                    payload, _ = await client.read(OID_A)
                    assert payload == b"object over TCP"
                    got = await client.submit(commands.GetAttr(OID_A))
                    assert got.ok and got.payload == b"2"
                    remove = await client.remove(OID_A)
                    assert remove.ok
                    _, gone = await client.read(OID_A)
                    assert gone.sense is SenseCode.FAIL

        run(scenario())

    def test_control_messages_cross_the_socket(self):
        async def scenario():
            target = make_target()
            async with OsdServer(target) as server:
                async with AsyncOsdClient("127.0.0.1", server.port) as client:
                    await client.write(OID_A, b"x" * 8192, class_id=3)
                    assert (await client.set_class(OID_A, 2)).ok
                    assert target.get_info(OID_A).class_id == 2
                    sense, _ = await client.query(OID_A)
                    assert sense is SenseCode.OK
                    assert await client.recovery_status() is SenseCode.OK

        run(scenario())

    def test_stats_endpoint_reports_service_counters(self):
        async def scenario():
            async with OsdServer(make_target()) as server:
                async with AsyncOsdClient("127.0.0.1", server.port, pool_size=2) as client:
                    for index in range(10):
                        await client.write(OID_A, b"s" * 512, class_id=3)
                    stats = await client.service_stats()
                    assert stats["commands"] >= 10
                    assert stats["connections_total"] >= 1
                    assert stats["connections_active"] >= 1
                    assert stats["latency"]["count"] >= 10
                    assert stats["latency"]["p99_ms"] >= stats["latency"]["p50_ms"] >= 0.0
                    assert stats["wire_errors"] == 0

        run(scenario())

    def test_pipelined_commands_share_one_socket(self):
        """Many overlapping requests on one connection all come back right."""

        async def scenario():
            slow_first = {"pending": True}

            def stall_first_read(command, _seq):
                if isinstance(command, commands.Read) and slow_first.pop("pending", None):
                    return 0.15
                return None

            async with OsdServer(make_target(), fault_hook=stall_first_read) as server:
                async with AsyncOsdClient(
                    "127.0.0.1", server.port, pool_size=1, timeout=5.0
                ) as client:
                    oids = [ObjectId(PARTITION_BASE, 0x10010 + i) for i in range(8)]
                    for index, oid in enumerate(oids):
                        await client.write(oid, f"payload-{index}".encode(), class_id=3)
                    reads = await asyncio.gather(*(client.read(oid) for oid in oids))
                    for index, (payload, response) in enumerate(reads):
                        assert response.ok
                        assert payload == f"payload-{index}".encode()
                    # The stalled first read forced later responses to
                    # overtake it on the same socket.
                    assert server.stats.max_in_flight >= 2

        run(scenario())


# ----------------------------------------------------------------------
# Acceptance integration: 8 clients, 500+ commands, zero loss
# ----------------------------------------------------------------------
class TestConcurrentLoad:
    @pytest.mark.net(timeout=120)
    def test_eight_clients_five_hundred_commands_zero_loss(self):
        async def scenario():
            async with OsdServer(make_target()) as server:
                report = await run_closed_loop(
                    [AsyncOsdClient("127.0.0.1", server.port, pool_size=1) for _ in range(8)],
                    requests=70,  # + 16 seed writes each ≈ 688 total
                    payload_bytes=4096,
                    write_fraction=0.35,
                    seed=99,
                    classes=(3,),
                )
                assert report.ops == 8 * 70
                assert report.errors == 0
                assert report.corrupted == 0
                assert server.stats.connections_total == 8
                assert server.stats.in_flight == 0

        run(scenario())

    @pytest.mark.net(timeout=120)
    def test_chaos_faults_recovered_without_caller_errors(self):
        """Drops and past-timeout delays: the retry path absorbs them all."""

        async def scenario():
            import random

            chaos = random.Random(4242)
            injected = {"drop": 0, "delay": 0}

            def chaotic(command, _seq):
                roll = chaos.random()
                if roll < 0.015:
                    injected["drop"] += 1
                    return "drop"
                if roll < 0.03:
                    injected["delay"] += 1
                    return 0.4  # well past the client timeout
                return None

            async with OsdServer(make_target(), fault_hook=chaotic) as server:
                retry = RetryPolicy(max_attempts=6, seed=7)
                report = await run_closed_loop(
                    [
                        AsyncOsdClient(
                            "127.0.0.1", server.port, pool_size=1, timeout=0.2, retry=retry
                        )
                        for _ in range(8)
                    ],
                    requests=64,
                    payload_bytes=2048,
                    write_fraction=0.4,
                    seed=7,
                    classes=(3,),
                )
                assert injected["drop"] + injected["delay"] > 0, "chaos never fired"
                assert report.errors == 0
                assert report.corrupted == 0
                assert report.retries > 0
                # Retried commands are visible in the server's stats too.
                assert server.stats.retries_seen > 0

        run(scenario())


# ----------------------------------------------------------------------
# Targeted fault injection
# ----------------------------------------------------------------------
class TestFaultRecovery:
    def test_delayed_response_past_timeout_is_retried(self):
        async def scenario():
            stall = {"pending": True}

            def delay_first_read(command, _seq):
                if isinstance(command, commands.Read) and stall.pop("pending", None):
                    return 0.5
                return None

            async with OsdServer(make_target(), fault_hook=delay_first_read) as server:
                async with AsyncOsdClient(
                    "127.0.0.1",
                    server.port,
                    timeout=0.1,
                    retry=RetryPolicy(max_attempts=3, seed=1),
                ) as client:
                    await client.write(OID_A, b"delayed but not lost", class_id=3)
                    payload, response = await client.read(OID_A)
                    assert response.ok
                    assert payload == b"delayed but not lost"
                    assert client.stats.timeouts == 1
                    assert client.stats.retries == 1

        run(scenario())

    def test_dropped_connection_mid_request_is_retried(self):
        async def scenario():
            sabotage = {"pending": True}

            def drop_first_read(command, _seq):
                if isinstance(command, commands.Read) and sabotage.pop("pending", None):
                    return "drop"
                return None

            async with OsdServer(make_target(), fault_hook=drop_first_read) as server:
                async with AsyncOsdClient(
                    "127.0.0.1",
                    server.port,
                    pool_size=1,
                    timeout=1.0,
                    retry=RetryPolicy(max_attempts=3, seed=1),
                ) as client:
                    await client.write(OID_A, b"survives a dead socket", class_id=3)
                    payload, response = await client.read(OID_A)
                    assert response.ok
                    assert payload == b"survives a dead socket"
                    assert client.stats.connection_errors >= 1
                    assert client.stats.retries >= 1

        run(scenario())

    def test_non_idempotent_command_is_not_retried(self):
        async def scenario():
            sabotage = {"pending": True}

            def drop_first_remove(command, _seq):
                if isinstance(command, commands.Remove) and sabotage.pop("pending", None):
                    return "drop"
                return None

            async with OsdServer(make_target(), fault_hook=drop_first_remove) as server:
                async with AsyncOsdClient(
                    "127.0.0.1",
                    server.port,
                    pool_size=1,
                    timeout=1.0,
                    retry=RetryPolicy(max_attempts=3, seed=1),
                ) as client:
                    await client.write(OID_A, b"doomed", class_id=3)
                    with pytest.raises(OsdServiceError):
                        await client.remove(OID_A)
                    assert client.stats.retries == 0

        run(scenario())

    def test_server_busy_surfaces_as_sense_and_retries(self):
        async def scenario():
            def slow_writes(command, _seq):
                return 0.15 if isinstance(command, commands.Write) else None

            async with OsdServer(
                make_target(), max_total_in_flight=1, fault_hook=slow_writes
            ) as server:
                async with AsyncOsdClient(
                    "127.0.0.1",
                    server.port,
                    pool_size=2,
                    timeout=2.0,
                    retry=RetryPolicy(max_attempts=6, seed=3),
                ) as client:
                    write_task = asyncio.ensure_future(
                        client.write(OID_A, b"occupies the server", class_id=3)
                    )
                    await asyncio.sleep(0.05)  # the write executed; its reply is held
                    payload, response = await client.read(OID_A)
                    assert response.ok  # eventually served after busy replies
                    await write_task
                    assert client.stats.busy_replies >= 1
                    assert server.stats.busy_rejections >= 1

        run(scenario())

    def test_concurrent_reconnects_share_one_socket(self):
        """Four reads in flight on a dropped socket retry together and
        reconnect once; closing the client leaves no socket open."""

        async def scenario():
            sabotage = {"pending": True}

            def drop_first_read(command, _seq):
                if isinstance(command, commands.Read) and sabotage.pop("pending", None):
                    return "drop"
                return None

            async with OsdServer(make_target(), fault_hook=drop_first_read) as server:
                client = AsyncOsdClient(
                    "127.0.0.1",
                    server.port,
                    pool_size=1,
                    retry=RetryPolicy(max_attempts=3, seed=1),
                )
                await client.write(OID_A, b"read four times", class_id=3)
                reads = await asyncio.gather(*(client.read(OID_A) for _ in range(4)))
                assert [payload for payload, _ in reads] == [b"read four times"] * 4
                assert client.stats.connection_errors == 4
                assert server.stats.connections_total == 2
                await client.aclose()
                await until(lambda: server.stats.connections_active == 0)

        run(scenario())

    def test_retry_budget_exhaustion_raises_service_error(self):
        async def scenario():
            def always_drop(_command, _seq):
                return "drop"

            async with OsdServer(make_target(), fault_hook=always_drop) as server:
                async with AsyncOsdClient(
                    "127.0.0.1",
                    server.port,
                    timeout=0.5,
                    retry=RetryPolicy(max_attempts=3, seed=5),
                ) as client:
                    with pytest.raises(OsdServiceError):
                        await client.read(OID_A)
                    assert client.stats.exhausted == 1

        run(scenario())

    def test_connect_to_a_closed_port_raises_service_error(self):
        async def scenario():
            # A port that was just bound and released: nothing listens.
            with socket.socket() as probe:
                probe.bind(("127.0.0.1", 0))
                port = probe.getsockname()[1]
            client = AsyncOsdClient("127.0.0.1", port, retry=NO_RETRY)
            with pytest.raises(OsdServiceError):
                await client.connect()
            with pytest.raises(OsdServiceError):
                await client.read(OID_A)
            assert client.stats.connection_errors == 1
            await client.aclose()

        run(scenario())


# ----------------------------------------------------------------------
# Server robustness against hostile bytes
# ----------------------------------------------------------------------
class TestServerRobustness:
    def test_garbage_pdu_in_valid_frame_gets_structured_error(self):
        # A PDU of the deleted JSON-header format is garbage like any other.
        json_header = b'{"oid":65541,"op":"read","pid":65536,"seq":4}'
        json_pdu = len(json_header).to_bytes(4, "big") + json_header

        async def scenario():
            async with OsdServer(make_target()) as server:
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                try:
                    for garbage in (b"\x00\x00\x00\x02{}garbage", json_pdu):
                        writer.write(b"".join(frame_parts([garbage])))
                        await writer.drain()
                        prefix = await reader.readexactly(FRAME_PREFIX_BYTES)
                        pdu = await reader.readexactly(frame_length(prefix))
                        seq, response = wire.decode_response_pdu(pdu)
                        assert seq is None
                        assert response.sense is SenseCode.FAIL
                    # The framing held, so the connection keeps serving.
                    good = commands.Read(OID_A)
                    writer.write(framed(good, seq=9))
                    await writer.drain()
                    prefix = await reader.readexactly(FRAME_PREFIX_BYTES)
                    pdu = await reader.readexactly(frame_length(prefix))
                    seq, response = wire.decode_response_pdu(pdu)
                    assert seq == 9
                    assert response.sense is SenseCode.FAIL  # no such object
                    assert server.stats.wire_errors == 2
                finally:
                    writer.close()

        run(scenario())

    def test_retired_opcode_gets_fail_and_the_connection_lives(self):
        async def scenario():
            target = make_target()
            async with OsdServer(target) as server:
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)

                async def reply():
                    prefix = await reader.readexactly(FRAME_PREFIX_BYTES)
                    return wire.decode_response_pdu(
                        await reader.readexactly(frame_length(prefix))
                    )

                try:
                    # CreateObject (seq 2), then SetAttr (seq 7), on OID_A.
                    for golden, expected_seq in zip(RETIRED_COMMANDS, (2, 7)):
                        writer.write(b"".join(frame_parts([bytes.fromhex(golden)])))
                        await writer.drain()
                        seq, response = await reply()
                        assert seq == expected_seq
                        assert response.sense is SenseCode.FAIL
                    assert not target.exists(OID_A)
                    writer.write(framed(commands.Write(OID_A, b"after"), seq=9))
                    await writer.drain()
                    assert (await reply())[0] == 9
                    writer.write(framed(commands.Read(OID_A), seq=10))
                    await writer.drain()
                    seq, response = await reply()
                    assert seq == 10 and response.payload == b"after"
                    assert server.stats.wire_errors == 2
                finally:
                    writer.close()

        run(scenario())

    def test_poisoned_frame_prefix_closes_the_connection(self):
        async def scenario():
            async with OsdServer(make_target()) as server:
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                writer.write(b"\xff\xff\xff\xff")  # declares a 4 GiB frame
                await writer.drain()
                assert await reader.read() == b""  # server hangs up
                writer.close()
                # ...but the listener is unharmed.
                async with AsyncOsdClient("127.0.0.1", server.port) as client:
                    response = await client.write(OID_A, b"still serving", class_id=3)
                    assert response.ok
                assert server.stats.wire_errors == 1

        run(scenario())

    def test_fuzzed_streams_never_kill_the_server(self):
        """Random byte soup on live connections: server survives them all."""

        async def scenario():
            import random

            fuzz = random.Random(1337)
            async with OsdServer(make_target()) as server:
                for _ in range(20):
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", server.port
                    )
                    writer.write(fuzz.randbytes(fuzz.randrange(1, 400)))
                    try:
                        await writer.drain()
                        writer.close()
                        await writer.wait_closed()
                    except (ConnectionError, OSError):
                        pass
                async with AsyncOsdClient("127.0.0.1", server.port) as client:
                    response = await client.write(OID_A, b"alive", class_id=3)
                    assert response.ok

        run(scenario())

    def test_oversized_command_rejected_client_side(self):
        # One byte past the 64 MiB PDU limit, in never-touched anonymous
        # pages: the encoder refuses on the length alone.
        with mmap.mmap(-1, wire.MAX_PDU_BYTES + 1) as oversized:

            async def scenario():
                async with OsdServer(make_target()) as server:
                    async with AsyncOsdClient(
                        "127.0.0.1", server.port, retry=NO_RETRY
                    ) as client:
                        with pytest.raises(WireError, match="limit"):
                            await client.write(OID_A, oversized, class_id=3)
                        assert server.stats.commands == 0

            run(scenario())

    def test_full_device_answers_0x64_and_the_connection_stays_up(self):
        # Five 8 KiB devices hold thirteen 3,000-byte unprotected objects.
        array = FlashArray(num_devices=5, device_capacity=8192, chunk_size=512, model=ZERO_COST)
        target = OsdTarget(array, policy=lambda _cid: ParityScheme(0))
        target.create_partition(PARTITION_BASE)
        oids = [ObjectId(PARTITION_BASE, 0x10005 + i) for i in range(20)]

        async def scenario():
            async with OsdServer(target) as server:
                async with AsyncOsdClient(
                    "127.0.0.1", server.port, pool_size=1, retry=NO_RETRY
                ) as client:
                    senses = []
                    for oid in oids:
                        response = await client.write(oid, bytes([oid.oid & 0xFF]) * 3000)
                        senses.append(response.sense)
                        if not response.ok:
                            break
                    assert senses == [SenseCode.OK] * 13 + [SenseCode.CACHE_FULL]
                    payload, response = await client.read(oids[0])
                    assert response.ok and payload == bytes([oids[0].oid & 0xFF]) * 3000
                    assert client.stats.connection_errors == 0

        run(scenario())

    def test_class_wider_than_the_online_devices_answers_fail_on_one_connection(self):
        # Two of five devices online: a two-parity class cannot be laid out.
        array = FlashArray(num_devices=5, device_capacity=10**6, chunk_size=64, model=ZERO_COST)
        target = OsdTarget(array, policy=lambda cid: ParityScheme(2 if cid == 2 else 0))
        target.create_partition(PARTITION_BASE)
        for device in range(3):
            array.fail_device(device)

        async def scenario():
            async with OsdServer(target) as server:
                async with AsyncOsdClient(
                    "127.0.0.1", server.port, pool_size=1, retry=NO_RETRY
                ) as client:
                    response = await client.write(OID_A, b"x" * 10000, class_id=2)
                    assert response.sense is SenseCode.FAIL
                    assert (await client.write(OID_A, b"x" * 10000, class_id=3)).ok
                    response = await client.set_class(OID_A, 2)
                    assert response.sense is SenseCode.FAIL
                    payload, response = await client.read(OID_A)
                    assert response.ok and payload == b"x" * 10000
                    assert server.stats.connections_total == 1
                    assert client.stats.connection_errors == 0

        run(scenario())


# ----------------------------------------------------------------------
# Graceful shutdown
# ----------------------------------------------------------------------
class TestGracefulShutdown:
    def test_drains_in_flight_then_refuses_new_connections(self):
        async def scenario():
            def slow_everything(_command, _seq):
                return 0.2

            target = make_target()
            server = OsdServer(target, fault_hook=slow_everything)
            await server.start()
            client = AsyncOsdClient("127.0.0.1", server.port, timeout=5.0)
            await client.connect()
            in_flight = asyncio.ensure_future(
                client.write(OID_A, b"written during shutdown", class_id=3)
            )
            await asyncio.sleep(0.05)  # executed server-side, reply held
            await server.shutdown()
            response = await in_flight  # drained, not dropped
            assert response.ok
            assert target.exists(OID_A)
            with pytest.raises((ConnectionError, OSError)):
                await asyncio.open_connection("127.0.0.1", server.port)
            await client.aclose()

        run(scenario())

    def test_shutdown_is_idempotent_and_clean_when_idle(self):
        async def scenario():
            server = OsdServer(make_target())
            await server.start()
            await server.shutdown()
            await server.shutdown()
            assert server.stats.in_flight == 0

        run(scenario())
