"""Reo's core: differentiated redundancy and differentiated recovery.

This package is the paper's primary contribution (§IV):

- :mod:`repro.core.classes` — the four-class semantic taxonomy (Table II);
- :mod:`repro.core.hotness` — ``H = Freq/Size`` tracking with the adaptive
  ``H_hot`` threshold (§IV-C.1);
- :mod:`repro.core.policy` — class→scheme maps: Reo's differentiated policy
  and the uniform baselines it is evaluated against (§VI);
- :mod:`repro.core.redundancy` — the reserved parity-budget accounting;
- :mod:`repro.core.recovery` — class-ordered, object-granular recovery
  (§IV-D);
- :mod:`repro.core.reo` — the :class:`~repro.core.reo.ReoCache` facade that
  wires the full stack together.
"""
