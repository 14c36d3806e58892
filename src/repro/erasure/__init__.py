"""Reed-Solomon erasure coding over GF(256), built from scratch.

This package is the coding substrate that Reo's differentiated redundancy
rides on (paper §II-B and §IV-C). It provides:

- :mod:`repro.erasure.galois` — the GF(2^8) tables (log/antilog and the
  full product table) and plain functions over uint8 arrays: scalar
  ``mul``/``inv``, the fused ``matvec_fragments``/``matvec_bytes`` kernel,
  ``cauchy_matrix`` and Gauss-Jordan ``invert``.
- :mod:`repro.erasure.rs` — :class:`~repro.erasure.rs.RSCodec`, a systematic
  Reed-Solomon codec with erasure decoding and both *direct* and *delta*
  parity updates (the paper chooses whichever needs fewer chunk reads).
- :mod:`repro.erasure.reference` — the seed kernel, kept verbatim for
  property tests and before/after benchmarks.
"""
