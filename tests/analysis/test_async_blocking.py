"""Positive/negative fixtures for the async-blocking rule."""

from __future__ import annotations


def test_time_sleep_in_async_def_fires(lint):
    lint.write(
        "net/bad_sleep.py",
        """
        import time

        async def handler():
            time.sleep(1.0)
        """,
    )
    findings = lint.run()
    assert [f.rule_id for f in findings] == ["async-blocking"]
    assert "asyncio.sleep" in findings[0].message
    assert "inside async def" in findings[0].message


def test_asyncio_sleep_is_quiet(lint):
    lint.write(
        "net/good_sleep.py",
        """
        import asyncio

        async def handler():
            await asyncio.sleep(1.0)
        """,
    )
    assert lint.rule_ids() == []


def test_time_sleep_in_sync_def_is_quiet(lint):
    # The rule is about the event loop; sync helpers may block.
    lint.write(
        "net/sync_helper.py",
        """
        import time

        def backoff():
            time.sleep(0.1)
        """,
    )
    assert lint.rule_ids() == []


def test_open_and_socket_in_async_def_fire(lint):
    lint.write(
        "net/bad_io.py",
        """
        import socket

        async def handler(path):
            data = open(path).read()
            sock = socket.create_connection(("localhost", 1))
            return data, sock
        """,
    )
    ids = lint.rule_ids()
    assert ids == ["async-blocking", "async-blocking"]


def test_scope_excludes_other_packages(lint):
    # Blocking calls in async defs outside repro.net / repro.osd.transport
    # are not this rule's business.
    lint.write(
        "workload/async_other.py",
        """
        import time

        async def stepper():
            time.sleep(0.5)
        """,
    )
    assert lint.rule_ids() == []


def test_cluster_scope_time_sleep_fires(lint):
    # repro.cluster shares the service event loop: a sleeping supervisor
    # cannot condemn a failing shard, so the rule covers it too.
    lint.write(
        "cluster/bad_supervisor.py",
        """
        import time

        async def autonomous_loop():
            time.sleep(0.25)
        """,
    )
    findings = lint.run()
    assert [f.rule_id for f in findings] == ["async-blocking"]
    assert "asyncio.sleep" in findings[0].message


def test_cluster_scope_asyncio_sleep_is_quiet(lint):
    lint.write(
        "cluster/good_supervisor.py",
        """
        import asyncio

        async def autonomous_loop():
            await asyncio.sleep(0.25)
        """,
    )
    assert lint.rule_ids() == []


def test_unawaited_module_coroutine_fires(lint):
    lint.write(
        "net/bad_unawaited.py",
        """
        async def flush():
            return None

        async def handler():
            flush()
        """,
    )
    findings = lint.run()
    assert [f.rule_id for f in findings] == ["async-blocking"]
    assert "never awaited" in findings[0].message


def test_unawaited_self_coroutine_fires_awaited_quiet(lint):
    lint.write(
        "net/bad_self_coro.py",
        """
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
        """,
    )
    findings = lint.run()
    assert [f.symbol for f in findings] == ["Server.bad"]


def test_stream_writer_write_is_not_confused_with_coroutines(lint):
    # `writer.write(...)` is synchronous StreamWriter API even though the
    # module defines an async method named `write` on another class.
    lint.write(
        "net/writer_ok.py",
        """
        class Client:
            async def write(self, data):
                return data

        async def pump(writer):
            writer.write(b"x")
        """,
    )
    assert lint.rule_ids() == []


def test_nested_sync_def_body_is_quiet(lint):
    lint.write(
        "net/nested_sync.py",
        """
        import time

        async def handler():
            def blocking_helper():
                time.sleep(1.0)
            return blocking_helper
        """,
    )
    assert lint.rule_ids() == []


def test_drain_inside_per_command_loop_fires(lint):
    lint.write(
        "net/bad_drain_loop.py",
        """
        async def serve(reader, writer):
            async for command in reader:
                writer.write(command)
                await writer.drain()
        """,
    )
    findings = lint.run()
    assert [f.rule_id for f in findings] == ["async-blocking"]
    assert "coalescing" in findings[0].message


def test_drain_inside_while_loop_fires(lint):
    lint.write(
        "net/bad_drain_while.py",
        """
        async def pump(writer, frames):
            while frames:
                writer.write(frames.pop())
                await writer.drain()
        """,
    )
    assert lint.rule_ids() == ["async-blocking"]


def test_drain_outside_a_loop_is_quiet(lint):
    # One drain per batch (after the loop) is the sanctioned shape.
    lint.write(
        "net/good_drain_batch.py",
        """
        async def flush(writer, frames):
            for frame in frames:
                writer.write(frame)
            await writer.drain()
        """,
    )
    assert lint.rule_ids() == []


def test_sleep_in_protocol_callback_fires(lint):
    # Sync methods of asyncio.Protocol subclasses ARE event-loop context:
    # the loop invokes data_received/buffer_updated directly.
    lint.write(
        "net/bad_protocol.py",
        """
        import asyncio
        import time

        class Conn(asyncio.BufferedProtocol):
            def buffer_updated(self, nbytes):
                time.sleep(0.1)
        """,
    )
    findings = lint.run()
    assert [f.rule_id for f in findings] == ["async-blocking"]
    assert findings[0].symbol == "Conn.buffer_updated"
    assert "asyncio.sleep" in findings[0].message
    # A sync callback is not an async def; the message says what it is.
    assert "inside event-loop callback" in findings[0].message
    assert "async def" not in findings[0].message


def test_blocking_io_in_streaming_protocol_fires(lint):
    lint.write(
        "net/bad_protocol_io.py",
        """
        from asyncio import Protocol

        class Conn(Protocol):
            def data_received(self, data):
                with open("/tmp/log") as handle:
                    handle.write(data)
        """,
    )
    findings = lint.run()
    assert [f.rule_id for f in findings] == ["async-blocking"]
    assert "open() inside event-loop callback" in findings[0].message


def test_unawaited_self_coroutine_in_protocol_callback_fires(lint):
    lint.write(
        "net/bad_protocol_coro.py",
        """
        import asyncio

        class Conn(asyncio.BufferedProtocol):
            async def drain(self):
                return None

            def eof_received(self):
                self.drain()
                return False
        """,
    )
    findings = lint.run()
    assert [f.symbol for f in findings] == ["Conn.eof_received"]
    assert "never awaited" in findings[0].message


def test_clean_protocol_callbacks_are_quiet(lint):
    lint.write(
        "net/good_protocol.py",
        """
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
        """,
    )
    assert lint.rule_ids() == []


def test_non_protocol_class_sync_methods_stay_quiet(lint):
    # Only protocol subclasses get the callback treatment; a plain class
    # with a blocking sync method is not the event loop's business.
    lint.write(
        "net/plain_class.py",
        """
        import time

        class RetrySchedule:
            def backoff(self):
                time.sleep(0.1)
        """,
    )
    assert lint.rule_ids() == []


def test_drain_in_nested_def_not_charged_to_enclosing_loop(lint):
    # The nested coroutine runs per call, not per iteration of the loop
    # that happens to enclose its definition.
    lint.write(
        "net/nested_drain.py",
        """
        async def build(writers):
            closers = []
            for writer in writers:
                async def close_one(w=writer):
                    w.write(b"bye")
                    await w.drain()
                closers.append(close_one)
            return closers
        """,
    )
    assert lint.rule_ids() == []
