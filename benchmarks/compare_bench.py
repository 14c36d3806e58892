"""Compare benchmark JSON runs against their committed baselines.

Two suites share this machinery:

- the erasure-kernel microbenchmark (``test_rs_codec_microbench.py``) →
  ``results/BENCH_rs_codec.json`` vs ``BENCH_rs_codec.baseline.json``
  (wall-clock throughput, so a tolerance is the only possible gate);
- the supervised fault campaign (``python -m repro.experiments
  fault-campaign`` / ``test_fault_campaign.py``) →
  ``results/BENCH_fault_campaign.json`` vs
  ``BENCH_fault_campaign.baseline.json`` (detection latency,
  time-to-full-redundancy, degraded-read p99 — all lower-is-better and
  all *simulated* seconds; ``test_fault_campaign.py`` additionally
  requires them to equal the baseline exactly).

Wall-clock performance of the served stack is not compared here: it is
measured out of process by ``perf/run.py`` against ``BENCHMARK.json``.

A metric entry provides its value as ``new_mbps`` (throughput) or
``value``, plus an optional ``higher_is_better`` flag (default true).
Throughput metrics regress when they *drop* more than the threshold;
latency-style metrics (``higher_is_better: false``) regress when they
*rise* more than the threshold. A baseline metric that the current
report no longer carries is reported as missing.

Used two ways:

- as a library by the ``bench_regression``-marked pytest check
  (``test_vs_baseline.py``), which warns by default and fails when
  ``REPRO_BENCH_STRICT=1``;
- as a CLI::

    PYTHONPATH=src python benchmarks/compare_bench.py            # all suites
    PYTHONPATH=src python benchmarks/compare_bench.py --strict   # exit 1 on regression
    PYTHONPATH=src python benchmarks/compare_bench.py CURRENT BASELINE

Absolute RS-kernel numbers depend on the machine, which is why the
default is a warning and that baseline is conservative; within one
machine (or CI runner class) a >20% move reliably means a real
regression, not noise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

DEFAULT_THRESHOLD = 0.20
_BENCH_DIR = Path(__file__).parent

#: suite name -> (current results file, committed baseline file)
SUITES: Dict[str, Tuple[Path, Path]] = {
    "rs_codec": (
        _BENCH_DIR / "results" / "BENCH_rs_codec.json",
        _BENCH_DIR / "BENCH_rs_codec.baseline.json",
    ),
    "fault_campaign": (
        _BENCH_DIR / "results" / "BENCH_fault_campaign.json",
        _BENCH_DIR / "BENCH_fault_campaign.baseline.json",
    ),
}

__all__ = ["Regression", "SUITES", "load", "compare", "format_report", "main"]


class Regression(NamedTuple):
    """One metric that moved past the allowed threshold, the wrong way.

    ``current`` is None when the current report no longer has the metric.
    """

    metric: str
    current: Optional[float]
    baseline: float
    higher_is_better: bool = True

    @property
    def change_fraction(self) -> float:
        """Relative change in the harmful direction (always positive)."""
        if self.higher_is_better:
            return 1.0 - self.current / self.baseline
        return self.current / self.baseline - 1.0


def load(path: "str | Path") -> Dict:
    """Load one benchmark JSON report."""
    return json.loads(Path(path).read_text())


def _metric_value(entry: Dict) -> Optional[float]:
    value = entry.get("new_mbps", entry.get("value"))
    return None if value is None else float(value)


def compare(current: Dict, baseline: Dict, threshold: float = DEFAULT_THRESHOLD) -> List[Regression]:
    """Metrics that moved past ``threshold`` in the harmful direction.

    Metrics only the current report has are ignored — adding a new
    measurement must not fail the comparison against an older baseline.
    A baseline metric the current report lacks *is* a regression:
    renaming or dropping a metric must not silently un-gate it.
    """
    regressions: List[Regression] = []
    current_metrics = current.get("metrics", {})
    for name, base_entry in sorted(baseline.get("metrics", {}).items()):
        base_value = _metric_value(base_entry)
        if not base_value:
            continue
        higher_is_better = bool(base_entry.get("higher_is_better", True))
        cur_value = _metric_value(current_metrics.get(name, {}))
        if cur_value is None:
            regressions.append(Regression(name, None, base_value, higher_is_better))
            continue
        if higher_is_better:
            regressed = cur_value < base_value * (1.0 - threshold)
        else:
            regressed = cur_value > base_value * (1.0 + threshold)
        if regressed:
            regressions.append(Regression(name, cur_value, base_value, higher_is_better))
    return regressions


def format_report(regressions: List[Regression], threshold: float = DEFAULT_THRESHOLD) -> str:
    lines = [
        f"{len(regressions)} benchmark metric(s) regressed >{threshold:.0%} vs baseline:"
    ]
    for regression in regressions:
        if regression.current is None:
            lines.append(
                f"  {regression.metric}: missing from the current report "
                f"(baseline {regression.baseline:.2f})"
            )
            continue
        direction = "-" if regression.higher_is_better else "+"
        lines.append(
            f"  {regression.metric}: {regression.current:.2f} vs "
            f"baseline {regression.baseline:.2f} "
            f"({direction}{regression.change_fraction:.0%})"
        )
    return "\n".join(lines)


def _compare_files(
    current: Path, baseline: Path, threshold: float
) -> Optional[List[Regression]]:
    """Compare one pair of files; None when either file is missing."""
    if not current.exists() or not baseline.exists():
        return None
    return compare(load(current), load(baseline), threshold)


def main(argv: "List[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", nargs="?", default=None, type=Path)
    parser.add_argument("baseline", nargs="?", default=None, type=Path)
    parser.add_argument(
        "--suite", choices=sorted(SUITES), default=None,
        help="compare just this suite's default files",
    )
    parser.add_argument(
        "--threshold", type=float, default=DEFAULT_THRESHOLD,
        help="allowed fractional change (default 0.20)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="exit 1 when any metric regressed (default: report only)",
    )
    args = parser.parse_args(argv)

    if (args.current is None) != (args.baseline is None):
        parser.error("give CURRENT and BASELINE together, or neither")
    if args.current is not None:
        pairs = {"explicit": (args.current, args.baseline)}
        for path in pairs["explicit"]:
            if not path.exists():
                print(f"missing benchmark file: {path}", file=sys.stderr)
                return 2
    elif args.suite is not None:
        pairs = {args.suite: SUITES[args.suite]}
    else:
        pairs = SUITES

    failed = False
    compared_any = False
    for name, (current, baseline) in pairs.items():
        regressions = _compare_files(current, baseline, args.threshold)
        if regressions is None:
            print(f"{name}: skipped (missing {current} or {baseline})")
            continue
        compared_any = True
        if regressions:
            failed = True
            print(f"{name}:")
            print(format_report(regressions, args.threshold))
        else:
            print(f"{name}: no regression vs baseline")
    if not compared_any:
        print("no benchmark runs found to compare", file=sys.stderr)
        return 2
    return 1 if failed and args.strict else 0


if __name__ == "__main__":
    raise SystemExit(main())
