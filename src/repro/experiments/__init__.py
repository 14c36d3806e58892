"""Experiment drivers: one module per paper table/figure (DESIGN.md §4).

Each driver's ``run_*`` function replays its traces through ``common.replay``
and returns a ``common.Figure`` or ``common.Table``, whose ``format()`` renders
the paper's shape. The benchmarks under ``benchmarks/`` and the examples call
the same drivers and helper, so a figure is regenerated the same way everywhere.

Scale profiles (``REPRO_PROFILE`` environment variable):

- ``smoke`` — seconds per figure; for CI sanity.
- ``fast`` (default) — minutes for the whole evaluation; preserves every
  ratio the paper's shapes depend on.
- ``full`` — paper-scale request counts and finer chunking; slow.
"""

from repro.experiments.common import (
    NORMAL_RUN_POLICIES,
    Profile,
    active_profile,
    build_experiment_cache,
    make_policy,
    make_trace,
)
from repro.experiments.failure import run_failure_resistance
from repro.experiments.normal_run import run_normal_run_figure
from repro.experiments.space_efficiency import run_space_efficiency_table
from repro.experiments.writeback import run_writeback_figure

__all__ = [
    "NORMAL_RUN_POLICIES",
    "Profile",
    "active_profile",
    "build_experiment_cache",
    "make_policy",
    "make_trace",
    "run_failure_resistance",
    "run_normal_run_figure",
    "run_space_efficiency_table",
    "run_writeback_figure",
]
