"""Query and round envelopes for a hybrid run, priced leaf by leaf.

Phase 1 asks the root and at most s points per test, one round per test.
Phase 2 prices each leaf refine_levels hands it.  A leaf's coefficients
are the supports whose syndrome is its label; say it holds t of them.  A
leaf that is searched costs at most t * gbsa_test_budget(m, d) queries
over its m candidates, one per round.  A leaf of one candidate under a
1-outcome costs nothing.  Any other probed leaf (a label with an outcome,
1 to fasmt.PROBE_FACTOR * d candidates) asks its m points in one round
and is done if t is 1.  Otherwise it is searched over the candidates the
probe did not find absent, which are the union u of its coefficients'
supports: m + t * gbsa_test_budget(u, d) queries in
1 + t * gbsa_test_budget(u, d) rounds.  Phase 2's rounds are at most the
sum of its leaves' rounds.
"""

from __future__ import annotations

from sparsemobius import fasmt
from sparsemobius.core import TestMatrix, syndrome
from sparsemobius.grouptest import gbsa_test_budget
from sparsemobius.oracle import CountingOracle, SparsePolynomial, SparsePolyOracle
from sparsemobius.pasmt import refine_levels


def hybrid_envelope(
    truth: SparsePolynomial, design: TestMatrix, d: int, tau: float = 1e-9
) -> tuple[int, int]:
    """(queries, rounds) that hybrid over design may spend on truth."""
    leaves = refine_levels(CountingOracle(SparsePolyOracle(truth)), design, tau)
    supports: dict = {}
    for k in truth.entries:
        supports.setdefault(syndrome(design, k), []).append(k.mask)
    queries, rounds = 1 + truth.sparsity * design.b, 1 + design.b
    for label, _, free, _ in leaves:
        m, t = free.bit_count(), len(supports[label])
        if label.mask and m == 1:
            continue
        if label.n and 0 < m <= fasmt.PROBE_FACTOR * d:
            union = 0
            for k in supports[label]:
                union |= k
            fallback = t * gbsa_test_budget(union.bit_count(), d) if t > 1 else 0
            queries += m + fallback
            rounds += 1 + fallback
        else:
            queries += t * gbsa_test_budget(m, d)
            rounds += t * gbsa_test_budget(m, d)
    return queries, rounds
