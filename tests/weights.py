"""The integer-weight rule the test suites share with the benchmark."""

from __future__ import annotations

from sparsemobius.oracle import SparsePolynomial


def integer_weights(poly: SparsePolynomial) -> SparsePolynomial:
    """The same supports with weights 1 + int(8 (v - 1)) in 1..8, drawn from
    the default [1, 2) weights as the benchmark's integer workloads are."""
    entries = {k: 1 + int(8 * (v - 1.0)) for k, v in poly.entries.items()}
    return SparsePolynomial(poly.n, entries, degree_bound=poly.degree_bound)
