"""Positive/negative cases for the async-blocking check."""

from tests.test_invariants import check, flagged

SLEEP = """
import time

async def handler():
    time.sleep(1.0)
"""


def test_time_sleep_in_async_def_fires():
    ((line, name, message),) = check("repro.net.bad_sleep", SLEEP)
    assert (line, name) == (5, "async-blocking")
    assert "asyncio.sleep" in message
    assert "inside async def" in message


def test_asyncio_sleep_is_quiet():
    source = """
    import asyncio

    async def handler():
        await asyncio.sleep(1.0)
    """
    assert flagged("repro.net.good_sleep", source) == []


def test_time_sleep_in_sync_def_is_quiet():
    # The rule is about the event loop; sync helpers may block.
    source = """
    import time

    def backoff():
        time.sleep(0.1)
    """
    assert flagged("repro.net.sync_helper", source) == []


def test_open_and_socket_in_async_def_fire():
    source = """
    import socket

    async def handler(path):
        data = open(path).read()
        sock = socket.create_connection(("localhost", 1))
        return data, sock
    """
    assert flagged("repro.net.bad_io", source) == [
        (5, "async-blocking"),
        (6, "async-blocking"),
    ]


def test_scope_excludes_other_packages():
    # Blocking calls in async defs outside repro.net, repro.osd.transport
    # and repro.cluster are not this rule's business.
    assert flagged("repro.workload.async_other", SLEEP) == []


def test_cluster_scope_time_sleep_fires():
    # repro.cluster shares the service event loop: a sleeping supervisor
    # cannot condemn a failing shard, so the rule covers it too.
    ((line, name, message),) = check("repro.cluster.bad_supervisor", SLEEP)
    assert (line, name) == (5, "async-blocking")
    assert "asyncio.sleep" in message


def test_cluster_scope_asyncio_sleep_is_quiet():
    source = """
    import asyncio

    async def autonomous_loop():
        await asyncio.sleep(0.25)
    """
    assert flagged("repro.cluster.good_supervisor", source) == []


def test_unawaited_module_coroutine_fires():
    source = """
    async def flush():
        return None

    async def handler():
        flush()
    """
    ((line, name, message),) = check("repro.net.bad_unawaited", source)
    assert (line, name) == (6, "async-blocking")
    assert "never awaited" in message


def test_unawaited_self_coroutine_fires_awaited_quiet():
    source = """
    import asyncio

    class Server:
        async def drain(self):
            return None

        async def bad(self):
            self.drain()

        async def good(self):
            await self.drain()

        async def also_good(self):
            task = asyncio.ensure_future(self.drain())
            return task
    """
    assert flagged("repro.net.bad_self_coro", source) == [(9, "async-blocking")]


def test_stream_writer_write_is_not_confused_with_coroutines():
    # `writer.write(...)` is synchronous StreamWriter API even though the
    # module defines an async method named `write` on another class.
    source = """
    class Client:
        async def write(self, data):
            return data

    async def pump(writer):
        writer.write(b"x")
    """
    assert flagged("repro.net.writer_ok", source) == []


def test_nested_sync_def_body_is_quiet():
    source = """
    import time

    async def handler():
        def blocking_helper():
            time.sleep(1.0)
        return blocking_helper
    """
    assert flagged("repro.net.nested_sync", source) == []


def test_drain_inside_per_command_loop_fires():
    source = """
    async def serve(reader, writer):
        async for command in reader:
            writer.write(command)
            await writer.drain()
    """
    ((line, name, message),) = check("repro.net.bad_drain_loop", source)
    assert (line, name) == (5, "async-blocking")
    assert "coalescing" in message


def test_drain_inside_while_loop_fires():
    source = """
    async def pump(writer, frames):
        while frames:
            writer.write(frames.pop())
            await writer.drain()
    """
    assert flagged("repro.net.bad_drain_while", source) == [(5, "async-blocking")]


def test_drain_outside_a_loop_is_quiet():
    # One drain per batch (after the loop) is the sanctioned shape.
    source = """
    async def flush(writer, frames):
        for frame in frames:
            writer.write(frame)
        await writer.drain()
    """
    assert flagged("repro.net.good_drain_batch", source) == []


def test_sleep_in_protocol_callback_fires():
    # Sync methods of asyncio.Protocol subclasses ARE event-loop context:
    # the loop invokes data_received/buffer_updated directly.
    source = """
    import asyncio
    import time

    class Conn(asyncio.BufferedProtocol):
        def buffer_updated(self, nbytes):
            time.sleep(0.1)
    """
    ((line, name, message),) = check("repro.net.bad_protocol", source)
    assert (line, name) == (7, "async-blocking")
    assert "asyncio.sleep" in message
    # A sync callback is not an async def; the message says what it is.
    assert "inside event-loop callback" in message
    assert "async def" not in message


def test_blocking_io_in_streaming_protocol_fires():
    source = """
    from asyncio import Protocol

    class Conn(Protocol):
        def data_received(self, data):
            with open("/tmp/log") as handle:
                handle.write(data)
    """
    ((line, name, message),) = check("repro.net.bad_protocol_io", source)
    assert (line, name) == (6, "async-blocking")
    assert "open() inside event-loop callback" in message


def test_unawaited_self_coroutine_in_protocol_callback_fires():
    source = """
    import asyncio

    class Conn(asyncio.BufferedProtocol):
        async def drain(self):
            return None

        def eof_received(self):
            self.drain()
            return False
    """
    ((line, name, message),) = check("repro.net.bad_protocol_coro", source)
    assert (line, name) == (9, "async-blocking")
    assert "never awaited" in message


def test_clean_protocol_callbacks_are_quiet():
    source = """
    import asyncio

    class Conn(asyncio.BufferedProtocol):
        def connection_made(self, transport):
            self.transport = transport

        def buffer_updated(self, nbytes):
            self.task = asyncio.ensure_future(self.pump())

        async def pump(self):
            await asyncio.sleep(0)

        def helper(self):
            # Ordinary arithmetic and method calls stay legal.
            return 2 + 2
    """
    assert flagged("repro.net.good_protocol", source) == []


def test_non_protocol_class_sync_methods_stay_quiet():
    # Only protocol subclasses get the callback treatment; a plain class
    # with a blocking sync method is not the event loop's business.
    source = """
    import time

    class RetrySchedule:
        def backoff(self):
            time.sleep(0.1)
    """
    assert flagged("repro.net.plain_class", source) == []


def test_drain_in_nested_def_not_charged_to_enclosing_loop():
    # The nested coroutine runs per call, not per iteration of the loop
    # that happens to enclose its definition.
    source = """
    async def build(writers):
        closers = []
        for writer in writers:
            async def close_one(w=writer):
                w.write(b"bye")
                await w.drain()
            closers.append(close_one)
        return closers
    """
    assert flagged("repro.net.nested_drain", source) == []
