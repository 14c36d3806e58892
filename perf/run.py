"""The benchmark's one command.

``python3 perf/run.py --workload W --seed N --seconds S --trace 0|1`` runs one
workload, checks every result, prints every metric by name with its unit and
ends with one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` (the default) reports the end-to-end metrics of an untraced
run; ``--trace 1`` makes a shorter untraced window and a traced one and
reports the per-layer metrics and each process's CPU budget by layer.
Without ``--workload`` it runs every workload ``BENCHMARK.json`` lists;
``--repeat-check`` runs each twice with one seed and once with another and
compares the pairs against the bounds in ``BENCHMARK.json``.

Exit status is non-zero when an op failed, a payload did not match, the
open-loop generator ran late, or a run outlived its watchdog.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from measurement import Measurement  # noqa: E402
from workloads import WORKLOADS, SimWorkload  # noqa: E402

#: Simulated-time results: the same seed must reproduce them exactly.
EXACT_METRICS = (
    "sim.hit_ratio_pct",
    "sim.bandwidth_mb_per_s",
    "sim.mean_latency_ms",
    "sim.space_efficiency_pct",
    "sim.rebuild_s",
)
#: A run may take this many times its nominal length before it is abandoned.
WATCHDOG_FACTOR = 3
#: Nominal seconds of a run beyond its measured window (set-ups, teardown).
NOMINAL_OVERHEAD_SECONDS = 15.0


def load_contract() -> Dict[str, Any]:
    with (ROOT / "BENCHMARK.json").open(encoding="utf-8") as handle:
        return json.load(handle)


class WatchdogExpired(RuntimeError):
    pass


def _expired(_signum: int, _frame: object) -> None:
    raise WatchdogExpired("the run outlived its watchdog")


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, quick: bool = False
) -> Measurement:
    """Run one workload under a watchdog and name every metric of the contract."""
    # Imported here so that ``--help`` and the contract checks need no numpy.
    from netbench import run_net
    from procs import ALLOWED_CPUS, BENCH_CPU
    from simbench import run_sim

    workload = WORKLOADS[name]
    os.sched_setaffinity(0, {BENCH_CPU})
    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(int(WATCHDOG_FACTOR * (seconds + NOMINAL_OVERHEAD_SECONDS)))
    try:
        if isinstance(workload, SimWorkload):
            measurement = run_sim(workload, seed, seconds, trace, quick)
        else:
            measurement = run_net(workload, seed, seconds, trace)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        os.sched_setaffinity(0, ALLOWED_CPUS)
    if measurement.metrics:
        contract = load_contract()
        wanted = contract["per_layer" if trace else "end_to_end"]
        known = {metric["name"] for metric in wanted}
        unknown = sorted(set(measurement.metrics) - known)
        if unknown:
            raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
        # A layer a workload does not exercise did no work: it reads 0.
        measurement.metrics = {
            metric["name"]: float(measurement.metrics.get(metric["name"], 0.0))
            for metric in wanted
        }
    return measurement


def units(trace: bool) -> Dict[str, str]:
    contract = load_contract()
    return {
        metric["name"]: metric["unit"]
        for metric in contract["per_layer" if trace else "end_to_end"]
    }


def report(measurement: Measurement, trace: bool) -> Dict[str, object]:
    """Print one run's metrics and return its result object."""
    unit_of = units(trace)
    print(f"workload {measurement.workload} ({'traced' if trace else 'untraced'})")
    for name, value in measurement.metrics.items():
        print(f"  {name:<44} {value:>16.4f} {unit_of[name]}")
    for line in measurement.notes:
        print(line)
    for problem in measurement.problems:
        print(f"  INVALID: {problem}")
    print(
        f"  attempted {measurement.attempted}  failed {measurement.failed}  "
        f"correct {measurement.correct}"
    )
    return {
        "correct": measurement.correct,
        "attempted": measurement.attempted,
        "failed": measurement.failed,
        "metrics": {
            name: {"value": value, "unit": unit_of[name]}
            for name, value in measurement.metrics.items()
        }
        if measurement.correct
        else {},
    }


def _run_in_child(name: str, seed: int, seconds: float, trace: bool, quick: bool
                  ) -> Dict[str, float]:
    """One run the way the driver makes it — a process of its own — or {}."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
    done = subprocess.run(command + (["--quick"] if quick else []),
                          capture_output=True, text=True, cwd=ROOT)
    if done.returncode != 0:
        print(done.stdout + done.stderr)
        return {}
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {metric: entry["value"] for metric, entry in result["metrics"].items()}


def repeat_check(names: List[str], seed: int, seconds: float, quick: bool,
                 reference_out: Optional[Path]) -> int:
    """Same seed twice, another seed once; compare against the bounds."""
    contract = load_contract()
    bounds = {m["name"]: m for m in contract["end_to_end"]}
    status = 0
    reference: Dict[str, object] = {}
    for name in names:
        first, second, other = (
            _run_in_child(name, run_seed, seconds, False, quick)
            for run_seed in (seed, seed, seed + 1)
        )
        if not (first and second and other):
            print(f"{name}: a run was invalid")
            status = 1
            continue
        print(f"{name}  (seed {seed} twice, then seed {seed + 1})")
        print(f"  {'metric':<16}{'first':>14}{'second':>14}{'diff':>9}{'bound':>8}"
              f"{'other seed':>14}{'diff':>9}")
        rows = {}
        for metric, spec in bounds.items():
            a, b, c = first[metric], second[metric], other[metric]
            sign = 1.0 if spec["better"] == "lower" else -1.0
            worse = sign * (b - a) / a
            verdict = ""
            if abs(worse) > spec["bound"]:
                verdict = "  OUTSIDE BOUND"
                status = 1
            print(f"  {metric:<16}{a:>14.3f}{b:>14.3f}{100 * worse:>+8.1f}%"
                  f"{100 * spec['bound']:>7.0f}%"
                  f"{c:>14.3f}{100 * sign * (c - a) / a:>+8.1f}%{verdict}")
            rows[metric] = {"first": a, "second": b, "other_seed": c,
                            "unit": spec["unit"], "bound": spec["bound"]}
        if isinstance(WORKLOADS[name], SimWorkload):
            traced = [_run_in_child(name, seed, seconds / 2, True, quick) for _ in range(2)]
            for metric in EXACT_METRICS:
                a, b = (run.get(metric) for run in traced)
                same = "identical" if a == b and a is not None else "DIFFERENT"
                print(f"  {metric:<28}{a!r:>24}{b!r:>24}  {same}")
                rows[metric] = {"first": a, "second": b}
                if same != "identical":
                    status = 1
        reference[name] = rows
    if reference_out is not None:
        reference_out.parent.mkdir(parents=True, exist_ok=True)
        payload = {"seed": seed, "seconds": seconds, "passed": status == 0,
                   "workloads": reference}
        reference_out.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        print(f"wrote {reference_out}")
    print("repeat check", "passed" if status == 0 else "FAILED")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0)
    parser.add_argument("--quick", action="store_true",
                        help="1 s windows and 1,000-request replays (smoke test)")
    parser.add_argument("--repeat-check", action="store_true")
    parser.add_argument("--write-reference", type=Path, default=None,
                        help="with --repeat-check: write the numbers to this file")
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = 1.0 if args.quick else float(contract["run_seconds"])
    names = [args.workload] if args.workload else [w["name"] for w in contract["workloads"]]
    if args.repeat_check:
        return repeat_check(names, args.seed, seconds, args.quick, args.write_reference)
    results: Dict[str, Dict[str, object]] = {}
    for name in names:
        measurement = run_workload(name, args.seed, seconds, bool(args.trace), args.quick)
        results[name] = report(measurement, bool(args.trace))
    ok = all(result["correct"] for result in results.values())
    sys.stdout.flush()
    # The last line is the machine-readable result: the run's own object for
    # one workload, one object per workload otherwise.
    print(json.dumps(results[names[0]] if args.workload else results))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
