"""§VI-B in-text table — average space efficiency of Reo-10/20/40% (exp tab-se).

The paper: Reo-10% averages 90.5% / 91.0% / 90% space efficiency on the
weak / medium / strong workloads; Reo-20% and Reo-40% land near their
specified parity percentage.
"""

from repro.experiments.space_efficiency import run_space_efficiency_table


def test_space_efficiency_table(benchmark, emit):
    table = benchmark.pedantic(run_space_efficiency_table, rounds=1, iterations=1)
    emit("space_efficiency_table", table.format())
    for locality in ("weak", "medium", "strong"):
        reo10 = table.rows["Reo-10%"][locality]
        reo20 = table.rows["Reo-20%"][locality]
        reo40 = table.rows["Reo-40%"][locality]
        # Close to the specified parity percentage (paper: ~90/80/60 +- a few).
        assert 84.0 <= reo10 <= 97.0, f"Reo-10% {locality}: {reo10}"
        assert 74.0 <= reo20 <= 92.0, f"Reo-20% {locality}: {reo20}"
        assert 56.0 <= reo40 <= 82.0, f"Reo-40% {locality}: {reo40}"
        # Ordering: a larger reserve stores more redundancy.
        assert reo10 > reo20 > reo40
