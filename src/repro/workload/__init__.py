"""MediSyn-like synthetic workload generation and analysis (paper §VI-A)."""
