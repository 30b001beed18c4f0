"""Dense reference transforms and the subset-sum independence check.

The transforms are exponential in n and exist to validate the sparse
algorithms on small instances: the zeta transform (coefficient table to
evaluation table) and its Mobius inverse.  The subset-sum independence
check tests the assumption that the pruning rule of the sparse algorithms
relies on.
"""

from __future__ import annotations

from typing import Sequence

from .core import BitVector
from .errors import CapacityError, DimensionError
from .oracle import DEFAULT_TAU, SparsePolynomial

__all__ = [
    "MAX_DENSE_N",
    "MAX_CHECK_SPARSITY",
    "DenseTable",
    "zeta_transform",
    "mobius_transform",
    "check_subset_sum_independence",
]

MAX_DENSE_N = 24
MAX_CHECK_SPARSITY = 25


class DenseTable:
    """All 2^n values of a function on {0,1}^n, indexed by coordinate mask.

    Index i is the point whose set coordinates are the set bits of i
    (coordinate 1 in bit 0, matching BitVector.mask).
    """

    __slots__ = ("n", "values")

    def __init__(self, n: int, values: Sequence[float]):
        if n < 1:
            raise DimensionError(f"dimension must be positive, got {n}")
        if n > MAX_DENSE_N:
            raise CapacityError(f"dense tables are capped at n={MAX_DENSE_N}, got {n}")
        vals = list(values)
        if len(vals) != 1 << n:
            raise DimensionError(f"expected {1 << n} values, got {len(vals)}")
        self.n = n
        self.values = vals

    @classmethod
    def zeros(cls, n: int) -> "DenseTable":
        return cls(n, [0] * (1 << n))

    def __getitem__(self, x: BitVector) -> float:
        if x.n != self.n:
            raise DimensionError(f"point length {x.n}, expected {self.n}")
        return self.values[x.mask]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DenseTable)
            and self.n == other.n
            and self.values == other.values
        )

    def __repr__(self) -> str:
        return f"DenseTable(n={self.n})"


def _sweep(table: DenseTable, sign: int) -> DenseTable:
    """Zeta (sign 1) or Mobius (sign -1): one pass per coordinate, 1..n."""
    values = list(table.values)
    for i in range(table.n):
        bit = 1 << i
        for x in range(1 << table.n):
            if x & bit:
                values[x] += sign * values[x ^ bit]
    return DenseTable(table.n, values)


def zeta_transform(table: DenseTable) -> DenseTable:
    """Sum over subsets: coefficient table in, evaluation table out."""
    return _sweep(table, 1)


def mobius_transform(table: DenseTable) -> DenseTable:
    """Inverse of zeta_transform, same sweep order."""
    return _sweep(table, -1)


def check_subset_sum_independence(
    poly: SparsePolynomial, tau: float = DEFAULT_TAU
) -> bool:
    """True iff every nonempty subset of coefficients sums away from zero.

    This is the structural assumption behind pruning empty bins: no
    cancellation may silence a bin that still contains support.  Sign-uniform
    coefficient sets with every magnitude above tau pass without enumeration;
    mixed signs fall back to enumerating all 2^s subset sums with early exit,
    which caps the sparsity at 25.
    """
    values = list(poly.entries.values())
    if not values:
        return True
    if all(v > tau for v in values) or all(v < -tau for v in values):
        return True
    if len(values) > MAX_CHECK_SPARSITY:
        raise CapacityError(
            f"subset-sum check is capped at s={MAX_CHECK_SPARSITY}, got {len(values)}"
        )
    sums = [0]
    for v in values:
        extended = [s + v for s in sums]
        for s in extended:
            if abs(s) <= tau:
                return False
        sums.extend(extended)
    return True
