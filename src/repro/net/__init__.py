"""repro.net — the networked OSD service layer.

The paper's prototype serves its object cache over a real network path
(kernel iSCSI initiator → user-level OSD target, §II-A/§IV-B). This package
is the reproduction's equivalent of that serving tier: an asyncio TCP
server hosting an :class:`~repro.osd.target.OsdTarget` and speaking the
length-prefixed PDU format of :mod:`repro.osd.wire` over real sockets, plus
an async initiator client with a connection pool, request pipelining,
per-request timeouts, and retry with exponential backoff for idempotent
commands.

Modules:

- :mod:`repro.net.server` — the asyncio OSD server (``python -m
  repro.net`` runs one).
- :mod:`repro.net.client` — the pooled, pipelined async initiator.
- :mod:`repro.net.flush` — per-connection outbound write coalescing.
- :mod:`repro.net.retry` — retry/backoff policy and idempotency rules.
- :mod:`repro.net.stats` — service counters and latency percentiles.
"""
