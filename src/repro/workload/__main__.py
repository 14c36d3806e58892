"""Command-line workload tooling.

Generate MediSyn-like traces and profile existing ones: popularity skew,
and from one O(N log N) LRU stack pass the median reuse distance in bytes
and the exact LRU hit ratio at 4-12% cache::

    python -m repro.workload generate medium /tmp/medium.jsonl --scale 100
    python -m repro.workload generate strong out.jsonl --write-ratio 0.3
    python -m repro.workload profile /tmp/medium.jsonl
"""

from __future__ import annotations

import argparse
import sys

from repro.workload.analysis import profile_trace
from repro.workload.medisyn import Locality, MediSynConfig, generate_workload
from repro.workload.trace import Trace


def _cmd_generate(args) -> int:
    config = MediSynConfig(
        locality=Locality(args.locality),
        num_objects=args.objects,
        num_requests=args.requests,
        write_ratio=args.write_ratio,
        seed=args.seed,
        scale=args.scale,
    )
    trace = generate_workload(config)
    trace.save(args.output)
    print(
        f"wrote {args.output}: {len(trace)} requests over "
        f"{len(trace.catalog)} objects ({trace.total_bytes / 1e6:.1f} MB data set)"
    )
    return 0


def _cmd_profile(args) -> int:
    trace = Trace.load(args.trace)
    print(profile_trace(trace).format())
    return 0


def main(argv=None) -> int:
    """CLI entry: generate or profile traces; returns the exit code."""
    parser = argparse.ArgumentParser(prog="python -m repro.workload", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser("generate", help="generate a MediSyn-like trace")
    generate.add_argument("locality", choices=[loc.value for loc in Locality])
    generate.add_argument("output", help="output trace path (JSON lines)")
    generate.add_argument("--objects", type=int, default=4_000)
    generate.add_argument("--requests", type=int, default=None)
    generate.add_argument("--write-ratio", type=float, default=0.0)
    generate.add_argument("--seed", type=int, default=20190707)
    generate.add_argument(
        "--scale", type=float, default=100.0, help="divide object sizes by this"
    )
    generate.set_defaults(func=_cmd_generate)

    profile = subparsers.add_parser("profile", help="summarize an existing trace")
    profile.add_argument("trace", help="trace path (JSON lines)")
    profile.set_defaults(func=_cmd_profile)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
