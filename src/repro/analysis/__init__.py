"""AST-based invariant linter for the repro codebase.

``python -m repro.analysis`` checks the project's own invariants — the
ones generic tools cannot know about.

Every rule sees one module's AST at a time:

- **determinism** — no wall clock / ambient entropy; the simulation core
  takes time from :class:`~repro.sim.clock.SimClock` and randomness from
  explicitly seeded RNG objects;
- **async-blocking** — nothing blocks the :mod:`repro.net` event loop,
  and no coroutine goes unawaited;
- **broad-except** / **sense-policy** — no Exception-wide catches, and
  the OSD target converts failures to T10 sense codes rather than
  raising to the wire loop;
- **seed-plumbing** — RNG state enters ``faults/`` and ``sim/`` as an
  explicit parameter, never a ``None`` default.

See :mod:`repro.analysis.engine` for the machinery (file walking,
reporters) and :mod:`repro.analysis.rules` for the rule set.
"""
