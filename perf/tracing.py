"""Spans recorded from outside the program.

:class:`Tracer` rebinds public callables on their classes and modules with
wrappers that time every call. Nothing under ``src/`` knows about it; the
spans a later change records from inside the program must agree with these.

Three kinds of boundary:

* a plain callable gives busy time on the thread's CPU clock
  (``time.thread_time``: time the process spent descheduled does not count,
  so self times add up to the CPU time the run measures), and self time =
  duration − the time its child spans cover (children are the traced calls
  made while it runs);
* a generator is timed one ``next()`` at a time, so the consumer's work
  between two items is not billed to the generator;
* a coroutine gives wall time only (``time.perf_counter``: other tasks run
  while it waits) and is never the parent of a plain span.

Per span name the tracer keeps calls, total and self seconds and a count of
*units* (bytes encoded, degraded reads, ...) for the whole window, and the
first :data:`MAX_SPANS` raw spans — name, start, end, span id, parent id,
op id — which :meth:`Tracer.write_spans` writes as JSON lines.
"""

from __future__ import annotations

import contextvars
import importlib
import itertools
import json
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

#: Identifier shared by the spans of one request. The load generator sets it
#: per op; in the server the command decoder sets it to the PDU's ``seq``.
CURRENT_OP: contextvars.ContextVar[int] = contextvars.ContextVar("perf_op", default=0)

#: Raw spans kept per process; the aggregates always cover every call.
MAX_SPANS = 50_000

Units = Callable[[tuple, Any], float]

_EXHAUSTED = object()


def _command_overhead(args: tuple, parts: Any) -> float:
    """Header bytes of an encoded command: framed size − payload size."""
    payload = getattr(args[0], "payload", None)
    return 4 + sum(len(part) for part in parts) - (len(payload) if payload else 0)


def _response_overhead(args: tuple, parts: Any) -> float:
    payload = args[0].payload
    return 4 + sum(len(part) for part in parts) - (len(payload) if payload else 0)


def _decoded_command(_args: tuple, pdu: Any) -> float:
    if pdu.seq is not None:
        CURRENT_OP.set(pdu.seq)
    return 0.0


def _stack_bytes(args: tuple, _result: Any) -> float:
    return args[1].nbytes


def _fragment_bytes(args: tuple, _result: Any) -> float:
    return sum(len(fragment) for fragment in args[1])


def _decoded_bytes(_args: tuple, stack: Any) -> float:
    return stack.nbytes


def _degraded(_args: tuple, result: Any) -> float:
    return 1.0 if result[1].degraded else 0.0


class Spec(NamedTuple):
    """One callable to trace: where it lives and how to time it."""

    name: str
    module: str
    owner: Optional[str]  # class name, or None for a module-level function
    attr: str
    kind: str = "sync"  # "sync" | "gen" | "coro"
    units: Optional[Units] = None


SPECS: Tuple[Spec, ...] = (
    Spec("net.client.submit", "repro.net.client", "AsyncOsdClient", "submit", "coro"),
    Spec("cluster.router.read", "repro.cluster.router", "RouterClient", "read", "coro"),
    Spec("cluster.router.write", "repro.cluster.router", "RouterClient", "write", "coro"),
    Spec("osd.wire.encode_cmd", "repro.osd.wire", None, "encode_command_parts",
         units=_command_overhead),
    Spec("osd.wire.decode_cmd", "repro.osd.wire", None, "decode_command_pdu",
         units=_decoded_command),
    Spec("osd.wire.encode_resp", "repro.osd.wire", None, "encode_response_parts",
         units=_response_overhead),
    Spec("osd.wire.decode_resp", "repro.osd.wire", None, "decode_response_pdu"),
    Spec("osd.transport.get_buffer", "repro.osd.transport", "FrameDecoder", "get_buffer"),
    Spec("osd.transport.buffer_updated", "repro.osd.transport", "FrameDecoder",
         "buffer_updated"),
    Spec("osd.transport.frames", "repro.osd.transport", "FrameDecoder", "frames", "gen"),
    Spec("net.flush.send", "repro.net.flush", "StreamFlusher", "send"),
    Spec("osd.target.write", "repro.osd.target", "OsdTarget", "write_object"),
    Spec("osd.target.read", "repro.osd.target", "OsdTarget", "read_object"),
    Spec("flash.array.write", "repro.flash.array", "FlashArray", "write_object"),
    Spec("flash.array.read", "repro.flash.array", "FlashArray", "read_object",
         units=_degraded),
    Spec("flash.array.delete", "repro.flash.array", "FlashArray", "delete_object"),
    Spec("flash.array.rebuild", "repro.flash.array", "FlashArray", "rebuild_object"),
    Spec("flash.device.write_chunk", "repro.flash.device", "FlashDevice", "write_chunk"),
    Spec("flash.device.read_chunk", "repro.flash.device", "FlashDevice", "read_chunk"),
    Spec("flash.latency.read_time", "repro.flash.latency", "ServiceTimeModel", "read_time"),
    Spec("flash.latency.write_time", "repro.flash.latency", "ServiceTimeModel", "write_time"),
    Spec("erasure.rs.encode_arrays", "repro.erasure.rs", "RSCodec", "encode_arrays",
         units=_stack_bytes),
    Spec("erasure.rs.encode", "repro.erasure.rs", "RSCodec", "encode",
         units=_fragment_bytes),
    Spec("erasure.rs.decode_arrays", "repro.erasure.rs", "RSCodec", "decode_arrays",
         units=_decoded_bytes),
    Spec("erasure.rs.reconstruct_arrays", "repro.erasure.rs", "RSCodec",
         "reconstruct_arrays"),
    Spec("cache.manager.read", "repro.cache.manager", "CacheManager", "read"),
    Spec("cache.manager.write", "repro.cache.manager", "CacheManager", "write"),
    Spec("cache.manager.reclassify", "repro.cache.manager", "CacheManager", "reclassify"),
    Spec("core.hotness.record_read", "repro.core.hotness", "HotnessTracker", "record_read"),
    Spec("core.hotness.update_threshold", "repro.core.hotness", "HotnessTracker",
         "update_threshold"),
    Spec("core.recovery.step", "repro.core.recovery", "RecoveryManager", "step"),
    Spec("backend.store.read", "repro.backend.store", "BackendStore", "read"),
    Spec("backend.store.write", "repro.backend.store", "BackendStore", "write"),
)

#: Per-name aggregate: [calls, total seconds, self seconds, units].
Aggregate = List[float]


class Tracer:
    """Times the callables named by :data:`SPECS` while installed."""

    def __init__(self, specs: Tuple[Spec, ...] = SPECS) -> None:
        self.specs = specs
        self.stats: Dict[str, Aggregate] = {}
        self.spans: List[Tuple[str, float, float, int, int, int]] = []
        #: Open plain spans, innermost last: [child seconds, span id].
        self._stack: List[list] = []
        self._ids = itertools.count(1)
        self._originals: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Installing
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Rebind every spec's callable; idempotent per tracer."""
        if self._originals:
            return
        wrap = {"sync": self._sync, "gen": self._gen, "coro": self._coro}
        for spec in self.specs:
            owner = importlib.import_module(spec.module)
            if spec.owner is not None:
                owner = getattr(owner, spec.owner)
            original = owner.__dict__[spec.attr]
            self._originals.append((owner, spec.attr, original))
            stats = self.stats.setdefault(spec.name, [0, 0.0, 0.0, 0.0])
            setattr(owner, spec.attr, wrap[spec.kind](spec, original, stats))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def reset(self) -> None:
        """Forget everything recorded so far (the window starts now)."""
        for stats in self.stats.values():
            stats[:] = [0, 0.0, 0.0, 0.0]
        self.spans.clear()

    # ------------------------------------------------------------------
    # Wrappers (hot: everything they touch is bound to a local name)
    # ------------------------------------------------------------------
    def _sync(self, spec: Spec, fn: Callable, stats: Aggregate) -> Callable:
        name, units, clock = spec.name, spec.units, time.thread_time
        stack, spans, ids, current_op = self._stack, self.spans, self._ids, CURRENT_OP.get

        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = [0.0, next(ids)]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                parent = 0
                if stack:
                    outer = stack[-1]
                    outer[0] += elapsed
                    parent = outer[1]
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[0]
                if len(spans) < MAX_SPANS:
                    spans.append((name, start, end, frame[1], parent, current_op()))
            if units is not None:
                stats[3] += units(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _gen(self, spec: Spec, fn: Callable, stats: Aggregate) -> Callable:
        # Each ``next()`` is one plain span of the same name; ``units``
        # counts the items yielded, so calls - units = exhausted iterators.
        def pull(iterator: Any) -> Any:
            return next(iterator, _EXHAUSTED)

        def count(_args: tuple, item: Any) -> float:
            return 0.0 if item is _EXHAUSTED else 1.0

        step = self._sync(spec._replace(units=count), pull, stats)

        def traced(*args: Any, **kwargs: Any) -> Any:
            iterator = fn(*args, **kwargs)
            while True:
                item = step(iterator)
                if item is _EXHAUSTED:
                    return
                yield item

        traced.__wrapped__ = fn
        return traced

    def _coro(self, spec: Spec, fn: Callable, stats: Aggregate) -> Callable:
        name, clock = spec.name, time.perf_counter
        spans, ids, current_op = self.spans, self._ids, CURRENT_OP.get

        async def traced(*args: Any, **kwargs: Any) -> Any:
            span_id = next(ids)
            start = clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                end = clock()
                stats[0] += 1
                stats[1] += end - start
                if len(spans) < MAX_SPANS:
                    spans.append((name, start, end, span_id, 0, current_op()))

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Aggregates per span name, JSON-ready (times in seconds)."""
        kinds = {spec.name: spec.kind for spec in self.specs}
        return {
            name: {
                "calls": stats[0],
                "total_s": stats[1],
                "self_s": stats[2],
                "units": stats[3],
                "wall_only": kinds[name] == "coro",
            }
            for name, stats in self.stats.items()
            if stats[0]
        }

    def write_spans(self, path: Path, process: str) -> None:
        """Write the kept raw spans as JSON lines (first line: a header)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="ascii") as handle:
            header = {
                "process": process,
                "clock": "plain spans: time.thread_time seconds (CPU); "
                "spans with parent 0 named net.client.* or cluster.router.*: "
                "time.perf_counter seconds (wall); both per process",
                "spans": len(self.spans),
                "calls": sum(stats[0] for stats in self.stats.values()),
            }
            handle.write(json.dumps(header) + "\n")
            for name, start, end, span_id, parent, op in self.spans:
                handle.write(
                    f'{{"name":"{name}","start":{start!r},"end":{end!r},'
                    f'"id":{span_id},"parent":{parent},"op":{op}}}\n'
                )


def merge_snapshots(*snapshots: Dict[str, Dict[str, float]]) -> Dict[str, Dict[str, float]]:
    """Sum per-name aggregates across processes."""
    merged: Dict[str, Dict[str, float]] = {}
    for snapshot in snapshots:
        for name, stats in snapshot.items():
            into = merged.setdefault(
                name,
                {"calls": 0, "total_s": 0.0, "self_s": 0.0, "units": 0.0,
                 "wall_only": stats["wall_only"]},
            )
            for key in ("calls", "total_s", "self_s", "units"):
                into[key] += stats[key]
    return merged

