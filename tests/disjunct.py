"""Exhaustive certification of d-disjunct test matrices.

No runner needs it: pasmt trusts the matrix it is given, and its decoder
raises on a label the matrix cannot explain.  The tests use it to certify
the matrices construct_disjunct builds.
"""

from __future__ import annotations

from itertools import combinations

from sparsemobius.core import TestMatrix
from sparsemobius.errors import CapacityError, ParameterError

VERIFY_WORK_CAP = 10**8


def verify_disjunct(H: TestMatrix, d: int) -> bool:
    """Exhaustively certify d-disjunctness.

    For every coordinate i and every set S of min(d, n-1) other
    coordinates, some test must contain i and avoid all of S.  The work is
    capped at n^(d+1) <= 10^8.
    """
    n = H.n
    if d < 1:
        raise ParameterError(f"need d >= 1, got {d}")
    if n ** (d + 1) > VERIFY_WORK_CAP:
        raise CapacityError(
            f"verification work n^(d+1) = {n ** (d + 1)} exceeds {VERIFY_WORK_CAP}"
        )
    rows = H.row_masks
    size = min(d, n - 1)
    if size == 0:
        return all(rows[i] for i in range(n))
    for i in range(n):
        mine = rows[i]
        others = [rows[j] for j in range(n) if j != i]
        for combo in combinations(others, size):
            union = 0
            for r in combo:
                union |= r
            if mine & ~union == 0:
                return False
    return True
