"""From span aggregates and counters to the named per-layer metrics.

A layer is a module of ``src/repro``; its metrics are named
``<layer>.<what>``. ``*_self_us`` and ``*_us`` are span self time per call,
``*_per_op`` is per measured op, ``*.loop_residual_us`` is a process's CPU
per op minus the self time of all its plain spans — what asyncio, syscalls
and untraced glue cost. Plain spans are timed on the thread's CPU clock, so
their self times and the residual add up to the process's CPU per op in the
traced window. Self times are reported as recorded, the tracer's own cost
included; ``trace.overhead_pct`` says how large that cost was.
"""

from __future__ import annotations

import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.flash.array import FlashArray

from tracing import merge_snapshots

Snapshot = Dict[str, Dict[str, float]]

#: Counters that describe state at the end of the window, not work in it.
STATE_COUNTERS = ("used_bytes", "logical_bytes")


def engine_counters(arrays: Iterable[FlashArray]) -> Dict[str, float]:
    """Cumulative device, space and decoder-cache counters of the arrays."""
    totals: Dict[str, float] = dict.fromkeys(
        (
            "chunk_writes",
            "chunk_reads",
            "device_bytes_written",
            "used_bytes",
            "logical_bytes",
            "decoder_hits",
            "decoder_misses",
        ),
        0,
    )
    for array in arrays:
        for device in array.devices:
            totals["chunk_writes"] += device.stats.writes
            totals["chunk_reads"] += device.stats.reads
            totals["device_bytes_written"] += device.stats.bytes_written
        totals["used_bytes"] += array.used_bytes
        totals["logical_bytes"] += array.logical_bytes
        cache = array.decoder_cache_stats()
        totals["decoder_hits"] += cache["hits"]
        totals["decoder_misses"] += cache["misses"]
    return totals


def window_delta(start: Dict[str, float], end: Dict[str, float]) -> Dict[str, float]:
    return {
        key: end[key] if key in STATE_COUNTERS else end[key] - start.get(key, 0)
        for key in end
    }


def spread_pct(values: Sequence[float]) -> float:
    """Interquartile range as a percentage of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return 100.0 * (quartiles[2] - quartiles[0]) / statistics.median(values)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _sum(snapshot: Snapshot, key: str, *names: str) -> float:
    """One aggregate (calls, self_s, total_s, units) summed over span names."""
    return sum(snapshot.get(name, {}).get(key, 0.0) for name in names)


def _self_us(snapshot: Snapshot, *names: str) -> float:
    """Self time per call in µs, over one or several span names."""
    return _ratio(_sum(snapshot, "self_s", *names) * 1e6, _sum(snapshot, "calls", *names))


def _wall_us(snapshot: Snapshot, *names: str) -> float:
    return _ratio(_sum(snapshot, "total_s", *names) * 1e6, _sum(snapshot, "calls", *names))


def plain_self_us_per_op(snapshot: Snapshot, ops: int) -> float:
    """Self time of every plain (non-coroutine) span, per op, in µs."""
    seconds = sum(s["self_s"] for s in snapshot.values() if not s["wall_only"])
    return _ratio(seconds * 1e6, ops)


def layer_of(span_name: str) -> str:
    return ".".join(span_name.split(".")[:2])


def span_metrics(
    ops: int,
    local: Snapshot,
    remote: Optional[Snapshot],
    counters: Dict[str, float],
    user_bytes: int,
) -> Dict[str, float]:
    """The per-layer metrics that come from spans and engine counters.

    ``local`` is the bench process, ``remote`` the server child (None for
    the simulated workloads, where everything is local). Codec and engine
    layers are read from the sum of the two; the layers both ends of a
    socket share (framing, flusher) are read from the server.
    """
    served = remote if remote is not None else local
    merged = merge_snapshots(local, remote) if remote is not None else local
    decode = ("erasure.rs.decode_arrays", "erasure.rs.reconstruct_arrays")
    encode = ("erasure.rs.encode_arrays", "erasure.rs.encode")
    bill = ("flash.latency.read_time", "flash.latency.write_time")
    decoder = (
        "osd.transport.get_buffer",
        "osd.transport.buffer_updated",
        "osd.transport.frames",
    )

    def calls(snapshot: Snapshot, *names: str) -> float:
        return _sum(snapshot, "calls", *names)

    def self_s(snapshot: Snapshot, *names: str) -> float:
        return _sum(snapshot, "self_s", *names)

    def units(snapshot: Snapshot, *names: str) -> float:
        return _sum(snapshot, "units", *names)

    routed = calls(local, "cluster.router.read", "cluster.router.write")
    return {
        "net.client.submit_wall_us": _wall_us(local, "net.client.submit"),
        "osd.wire.encode_cmd_us": _self_us(local, "osd.wire.encode_cmd"),
        "osd.wire.decode_cmd_us": _self_us(served, "osd.wire.decode_cmd"),
        "osd.wire.encode_resp_us": _self_us(served, "osd.wire.encode_resp"),
        "osd.wire.decode_resp_us": _self_us(local, "osd.wire.decode_resp"),
        "osd.wire.overhead_bytes_per_op": _ratio(
            units(local, "osd.wire.encode_cmd") + units(served, "osd.wire.encode_resp"), ops
        ),
        "osd.transport.decoder_self_us": _ratio(
            self_s(served, *decoder) * 1e6, calls(served, "osd.transport.buffer_updated")
        ),
        "osd.transport.frames_per_read": _ratio(
            units(served, "osd.transport.frames"),
            calls(served, "osd.transport.buffer_updated"),
        ),
        "net.flush.send_self_us": _self_us(served, "net.flush.send"),
        "osd.target.write_self_us": _self_us(merged, "osd.target.write"),
        "osd.target.read_self_us": _self_us(merged, "osd.target.read"),
        "flash.array.write_self_us": _self_us(merged, "flash.array.write"),
        "flash.array.read_self_us": _self_us(merged, "flash.array.read"),
        "flash.array.delete_self_us": _self_us(merged, "flash.array.delete"),
        "flash.array.rebuild_self_us": _self_us(merged, "flash.array.rebuild"),
        "flash.array.degraded_read_share": _ratio(
            units(merged, "flash.array.read"), calls(merged, "flash.array.read")
        ),
        "flash.array.stored_bytes_per_user_byte": _ratio(
            counters.get("used_bytes", 0), counters.get("logical_bytes", 0)
        ),
        "flash.device.write_chunk_us": _self_us(merged, "flash.device.write_chunk"),
        "flash.device.read_chunk_us": _self_us(merged, "flash.device.read_chunk"),
        "flash.device.chunk_writes_per_op": _ratio(counters.get("chunk_writes", 0), ops),
        "flash.device.chunk_reads_per_op": _ratio(counters.get("chunk_reads", 0), ops),
        "flash.device.bytes_written_per_user_byte": _ratio(
            counters.get("device_bytes_written", 0), user_bytes
        ),
        "flash.latency.bill_us_per_op": _ratio(self_s(merged, *bill) * 1e6, ops),
        "flash.latency.calls_per_op": _ratio(calls(merged, *bill), ops),
        "erasure.rs.encode_us_per_mb": _ratio(
            self_s(merged, *encode) * 1e6, units(merged, *encode) / 1e6
        ),
        "erasure.rs.encode_calls_per_op": _ratio(calls(merged, *encode), ops),
        "erasure.rs.decode_us_per_mb": _ratio(
            self_s(merged, *decode) * 1e6, units(merged, decode[0]) / 1e6
        ),
        "erasure.rs.decode_calls_per_op": _ratio(calls(merged, decode[0]), ops),
        "erasure.rs.decoder_cache_hit_ratio": _ratio(
            counters.get("decoder_hits", 0),
            counters.get("decoder_hits", 0) + counters.get("decoder_misses", 0),
        ),
        "cluster.router.op_wall_us": _wall_us(
            local, "cluster.router.read", "cluster.router.write"
        ),
        "cluster.router.subops_per_op": _ratio(calls(local, "net.client.submit"), routed),
        "cache.manager.read_self_us": _self_us(local, "cache.manager.read"),
        "cache.manager.write_self_us": _self_us(local, "cache.manager.write"),
        "cache.manager.reclassify_self_us": _self_us(local, "cache.manager.reclassify"),
        "cache.manager.reclassify_calls": calls(local, "cache.manager.reclassify"),
        "core.hotness.record_read_us": _self_us(local, "core.hotness.record_read"),
        "core.hotness.update_threshold_us": _self_us(local, "core.hotness.update_threshold"),
        "core.hotness.update_threshold_calls": calls(local, "core.hotness.update_threshold"),
        "core.recovery.step_self_us": _self_us(local, "core.recovery.step"),
        "core.recovery.steps": calls(local, "core.recovery.step"),
        "backend.store.read_self_us": _self_us(local, "backend.store.read"),
    }


def budget_table(
    title: str, snapshot: Snapshot, ops: int, cpu_us_per_op: float
) -> List[str]:
    """One process's CPU per op split by layer, as printable lines."""
    rows: Dict[str, Tuple[float, float]] = {}
    for name, stats in snapshot.items():
        if stats["wall_only"]:
            continue
        layer = layer_of(name)
        calls, self_s = rows.get(layer, (0.0, 0.0))
        rows[layer] = (calls + stats["calls"], self_s + stats["self_s"])
    lines = [
        f"  {title}: {cpu_us_per_op:.1f} us CPU/op in the traced window of {ops} ops",
        f"    {'layer':<18}{'calls/op':>10}{'self us/op':>12}{'share':>8}",
    ]
    covered = 0.0
    for layer, (calls, self_s) in sorted(rows.items(), key=lambda row: -row[1][1]):
        self_us = _ratio(self_s * 1e6, ops)
        covered += self_us
        lines.append(
            f"    {layer:<18}{_ratio(calls, ops):>10.2f}{self_us:>12.2f}"
            f"{_ratio(100 * self_us, cpu_us_per_op):>7.1f}%"
        )
    residual = cpu_us_per_op - covered
    lines.append(
        f"    {'(loop residual)':<18}{'':>10}{residual:>12.2f}"
        f"{_ratio(100 * residual, cpu_us_per_op):>7.1f}%"
    )
    return lines
