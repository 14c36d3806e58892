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
