"""Simulated flash-SSD array substrate.

This package stands in for the paper's five-device Intel 540s array
(DESIGN.md §2). It stores *real bytes* in simulated devices, lays objects out
in RAID-like stripes with a per-object redundancy scheme (variable parity
count, rotated parity placement, or full replication — paper §IV-C.3), and
accounts simulated service time through a calibrated latency model.
"""
