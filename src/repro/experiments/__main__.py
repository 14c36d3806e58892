"""Command-line entry point: regenerate the paper's evaluation.

Usage::

    python -m repro.experiments                 # everything, default profile
    python -m repro.experiments fig8 fig9       # just those artefacts
    REPRO_PROFILE=smoke python -m repro.experiments --list

Artefact names: fig5, fig6, fig7, fig8, fig9, space-table, ablations,
fault-campaign, cluster-campaign, chaos-campaign (these three honour
``--seed``), and more — see ``--list``; ``fault_campaign`` is read as
``fault-campaign``.
Outputs print to stdout and are saved under ``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments.ablations import (
    run_chunk_size_sweep,
    run_eviction_policy_ablation,
    run_hot_parity_sweep,
    run_hotness_indicator_ablation,
    run_recovery_priority_ablation,
)
from repro.experiments.campaign import RESULTS_DIR
from repro.experiments.chaos_campaign import run_chaos_campaign
from repro.experiments.cluster_campaign import run_cluster_campaign
from repro.experiments.common import active_profile
from repro.experiments.concurrency import run_concurrency_sweep
from repro.experiments.endurance import (
    format_write_amplification,
    run_parity_placement_wear,
    run_write_amplification_sweep,
)
from repro.experiments.failure import run_failure_resistance
from repro.experiments.fault_campaign import run_fault_campaign
from repro.experiments.normal_run import run_normal_run_figure
from repro.experiments.recovery_timeline import run_recovery_timeline
from repro.experiments.space_efficiency import run_space_efficiency_table
from repro.experiments.warmup import run_warmup_experiment
from repro.experiments.writeback import run_writeback_figure
from repro.workload.medisyn import Locality


def _ablations_text() -> str:
    return "\n\n".join(
        result.format()
        for result in (
            run_hotness_indicator_ablation(),
            run_recovery_priority_ablation(),
            run_eviction_policy_ablation(),
            run_hot_parity_sweep(),
            run_chunk_size_sweep(),
        )
    )


def _seeded_campaign(run):
    """A campaign artefact: run at ``--seed`` (if given), persist its JSON."""

    def text(seed: "int | None") -> str:
        result = run() if seed is None else run(seed=seed)
        result.write_json()
        return result.format()

    return text


ARTEFACTS = {
    "fig5": lambda: run_normal_run_figure(Locality.WEAK).format(),
    "fig6": lambda: run_normal_run_figure(Locality.MEDIUM).format(),
    "fig7": lambda: run_normal_run_figure(Locality.STRONG).format(),
    "fig8": lambda: run_failure_resistance().format(),
    "fig9": lambda: run_writeback_figure().format(),
    "space-table": lambda: run_space_efficiency_table().format(),
    "recovery-timeline": lambda: run_recovery_timeline().format(),
    "concurrency": lambda: run_concurrency_sweep().format(),
    "fault-campaign": _seeded_campaign(run_fault_campaign),
    "cluster-campaign": _seeded_campaign(run_cluster_campaign),
    "chaos-campaign": _seeded_campaign(run_chaos_campaign),
    "warmup": lambda: run_warmup_experiment().format(),
    "ablations": _ablations_text,
    "endurance": lambda: (
        format_write_amplification(run_write_amplification_sweep())
        + "\n\n"
        + run_parity_placement_wear().format()
    ),
}
#: Artefacts that take ``--seed``.
SEEDED = {"fault-campaign", "cluster-campaign", "chaos-campaign"}


def main(argv=None) -> int:
    """CLI entry: regenerate the chosen artefacts; returns the exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments", description=__doc__
    )
    parser.add_argument(
        "artefacts",
        nargs="*",
        type=lambda name: name.replace("_", "-"),
        choices=[*ARTEFACTS, []],
        help="artefacts to regenerate (default: all; '_' is read as '-')",
    )
    parser.add_argument(
        "--list", action="store_true", help="list artefact names and exit"
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="workload/fault seed for the fault-, cluster- and chaos-campaign "
        "artefacts (identical seeds produce byte-identical ledgers)",
    )
    args = parser.parse_args(argv)
    if args.list:
        for name in ARTEFACTS:
            print(name)
        return 0
    profile = active_profile()
    chosen = args.artefacts or list(ARTEFACTS)
    print(f"profile: {profile.name} (REPRO_PROFILE to change)\n")
    for name in chosen:
        started = time.perf_counter()
        text = ARTEFACTS[name](args.seed) if name in SEEDED else ARTEFACTS[name]()
        elapsed = time.perf_counter() - started
        print(text)
        print(f"\n[{name}: {elapsed:.1f}s]\n")
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        (RESULTS_DIR / f"cli_{name.replace('-', '_')}.txt").write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
