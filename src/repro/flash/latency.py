"""Service-time models for simulated storage devices.

A device operation costs a fixed per-operation overhead (command processing,
flash translation layer, or seek + rotation for disks) plus a transfer term
proportional to the payload size. The presets are calibrated to the hardware
the paper's testbed used: Intel 540s SATA SSDs, a 7,200 RPM Western Digital
hard drive, and a 10 Gbps Ethernet hop. Absolute values only need to be
plausible — the reproduced *shapes* come from their ratios (flash is ~2
orders of magnitude quicker to first byte than the backend path).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.units import MB, MICROSECOND, MILLISECOND

__all__ = [
    "ServiceTimeModel",
    "INTEL_540S_SSD",
    "HDD_7200RPM",
    "NETWORK_10GBE",
    "ZERO_COST",
]


@dataclass(frozen=True)
class ServiceTimeModel:
    """Latency model: ``time = overhead + bytes / bandwidth``.

    Attributes:
        read_overhead: fixed seconds added to every read operation.
        write_overhead: fixed seconds added to every write operation.
        read_bandwidth: sustained read throughput in bytes/second.
        write_bandwidth: sustained write throughput in bytes/second.
    """

    read_overhead: float
    write_overhead: float
    read_bandwidth: float
    write_bandwidth: float

    def __post_init__(self) -> None:
        if self.read_overhead < 0 or self.write_overhead < 0:
            raise ValueError("overheads must be non-negative")
        if self.read_bandwidth <= 0 or self.write_bandwidth <= 0:
            raise ValueError("bandwidths must be positive")

    def read_time(self, num_bytes: int) -> float:
        """Service time for reading ``num_bytes``."""
        return self.read_overhead + num_bytes / self.read_bandwidth

    def write_time(self, num_bytes: int) -> float:
        """Service time for writing ``num_bytes``."""
        return self.write_overhead + num_bytes / self.write_bandwidth

    def combine(self, other: "ServiceTimeModel") -> "ServiceTimeModel":
        """Stack two models in series (e.g. network hop + device)."""
        return ServiceTimeModel(
            read_overhead=self.read_overhead + other.read_overhead,
            write_overhead=self.write_overhead + other.write_overhead,
            read_bandwidth=min(self.read_bandwidth, other.read_bandwidth),
            write_bandwidth=min(self.write_bandwidth, other.write_bandwidth),
        )

    def scaled(self, multiplier: float) -> "ServiceTimeModel":
        """This model slowed down uniformly by ``multiplier``.

        Overheads grow and bandwidths shrink by the same factor, so every
        operation takes ``multiplier`` times longer regardless of size — the
        service-time shape of a fail-slow device
        (:class:`repro.faults.plan.FailSlow`).
        """
        if multiplier <= 0:
            raise ValueError("slowdown multiplier must be positive")
        return ServiceTimeModel(
            read_overhead=self.read_overhead * multiplier,
            write_overhead=self.write_overhead * multiplier,
            read_bandwidth=self.read_bandwidth / multiplier,
            write_bandwidth=self.write_bandwidth / multiplier,
        )


#: SATA SSD comparable to the testbed's Intel 540s (560/480 MB/s seq, ~80 us op).
INTEL_540S_SSD = ServiceTimeModel(
    read_overhead=80 * MICROSECOND,
    write_overhead=100 * MICROSECOND,
    read_bandwidth=560 * MB,
    write_bandwidth=480 * MB,
)

#: 7,200 RPM hard drive: ~8 ms average positioning, ~150 MB/s streaming.
HDD_7200RPM = ServiceTimeModel(
    read_overhead=8 * MILLISECOND,
    write_overhead=9 * MILLISECOND,
    read_bandwidth=150 * MB,
    write_bandwidth=140 * MB,
)

#: One 10 GbE hop: ~100 us RTT contribution, 1.25 GB/s line rate.
NETWORK_10GBE = ServiceTimeModel(
    read_overhead=100 * MICROSECOND,
    write_overhead=100 * MICROSECOND,
    read_bandwidth=1250 * MB,
    write_bandwidth=1250 * MB,
)

#: Free I/O, for unit tests that assert on logic rather than timing.
ZERO_COST = ServiceTimeModel(
    read_overhead=0.0,
    write_overhead=0.0,
    read_bandwidth=float("inf"),
    write_bandwidth=float("inf"),
)
