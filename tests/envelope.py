"""Query and round envelopes for a hybrid run, priced leaf by leaf.

Phase 1 asks the root and at most s points per test, one round per test.
Phase 2 prices each leaf refine_levels hands it.  A leaf's coefficients
are the supports whose syndrome is its label; say it holds t of them.  A
leaf of one candidate under a 1-outcome costs nothing.  Any other leaf
with a label and m candidates is probed: it asks the b tests of
construct_disjunct(m, d), mapped onto its candidates in ascending order,
in one round, and is done if t is 1.  Otherwise it is searched over its
candidates minus those of the one-candidate tests that miss every
support in it, u of them: b + t * gbsa_test_budget(u, d) queries in 1 + t *
gbsa_test_budget(u, d) rounds.  A leaf with no label, the one leaf of a
design with no tests, is searched over its m candidates: at most
t * gbsa_test_budget(m, d) queries, one per round.  Phase 2's rounds are
at most the sum of its leaves' rounds.
"""

from __future__ import annotations

from sparsemobius.core import TestMatrix, syndrome
from sparsemobius.grouptest import construct_disjunct, gbsa_test_budget
from sparsemobius.oracle import CountingOracle, SparsePolynomial, SparsePolyOracle
from sparsemobius.pasmt import refine_levels


def probe_tests(free: int, d: int) -> list[int]:
    """construct_disjunct(|free|, d)'s tests as masks over free, item i
    its i-th set bit in ascending order."""
    coords = [i for i in range(free.bit_length()) if free >> i & 1]
    return [
        sum(1 << coords[c - 1] for c in test.coords())
        for test in construct_disjunct(len(coords), d).columns
    ]


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
        if label.n and m:
            union = 0
            for k in supports[label]:
                union |= k
            tests = probe_tests(free, d)
            for test in tests:
                if not test & union and not test & (test - 1):
                    free &= ~test
            fallback = t * gbsa_test_budget(free.bit_count(), d) if t > 1 else 0
            queries += len(tests) + fallback
            rounds += 1 + fallback
        else:
            queries += t * gbsa_test_budget(m, d)
            rounds += t * gbsa_test_budget(m, d)
    return queries, rounds
