"""Breadth-first sparse reconstruction over a fixed disjunct test matrix.

The hidden coefficients are bucketed by the outcome string (label) their
support produces against a growing prefix of the matrix columns.  One
adaptive round per column refines every surviving bucket at once: a single
evaluation per bucket yields a unit lower-triangular system in label order
whose solution is the 0-child sums; 1-child sums follow by conservation,
and buckets whose sum vanishes are dropped.  After all b columns each
surviving bucket holds exactly one coefficient and its full syndrome.  Its
support is the candidate set the loop carried down with it, so the
disjunct decoder only checks that support against the label and does not
decode the label again.

The system is sparse: bucket i's row holds only the earlier buckets whose
labels lie componentwise below its own.  The level loop carries that list
for every bucket and passes it on instead of comparing label pairs.  The
c-child of bucket j lies below the c'-child of bucket i exactly when label
j <= label i and c <= c', so the 1-child of i inherits the surviving
children of every bucket on i's list followed by i's own surviving
0-child, and the 0-child of i inherits the surviving 0-children only.
Both lists stay ascending and below their own index by construction, so
the loop does not check them.  A level makes one pass over its buckets:
the back-substitution of bucket i's 0-child sum, in row order as a dense
solve subtracts, and the building of i's children share that pass, so a
level with L buckets and E comparable pairs costs O(L + E) besides its
queries.  solve_bin_system is that solve on its own, with the row checks;
the row tests check the loop's rows with it, and the traced benchmark
looks it up.

The query count is at most s*b + 1 (2 when f is 0 at all-ones) and the
number of adaptive rounds is b, independent of s: the all-ones root query
shares level 1's batch, since level 1's one point does not depend on its
value.
"""

from __future__ import annotations

from typing import Sequence, TextIO

from .core import BitVector, Label, TestMatrix, _new, log_query
from .errors import DimensionError, ParameterError
from .grouptest import decode_disjunct
from .oracle import DEFAULT_TAU, CountingOracle, SparsePolynomial, check_tau

__all__ = ["solve_bin_system", "pasmt_run"]


def solve_bin_system(
    below: Sequence[Sequence[int]], measurements: Sequence[float]
) -> list[float]:
    """Back-substitute bucket sums from downward-closed measurements.

    Measurement i sums unknown i and the unknowns listed in below[i], the
    buckets whose labels lie componentwise below label i.  Each list must
    be strictly ascending with every index below i, so the system is unit
    lower triangular; the unknowns are subtracted in list order.
    """
    if len(below) != len(measurements):
        raise DimensionError(
            f"{len(below)} rows but {len(measurements)} measurements"
        )
    solution: list[float] = []
    for i, (row, acc) in enumerate(zip(below, measurements)):
        last = -1
        for j in row:
            if not last < j < i:
                raise ParameterError(
                    f"row {i} must list strictly increasing indices below {i}"
                )
            acc -= solution[j]
            last = j
        solution.append(acc)
    return solution


def refine_levels(
    f: CountingOracle,
    H: TestMatrix,
    tau: float,
    transcript: TextIO | None = None,
) -> list[tuple[Label, float, int, list[int]]]:
    """Run the level loop and return surviving leaf buckets.

    Each returned leaf is (full-length label, bucket sum, candidate set,
    the ascending indices of the leaves whose labels lie componentwise
    below its own).  The candidate set is the mask of the coordinates
    outside every column the label records a 0 at, the only ones the
    bucket's supports can use; a bucket carries it from the root down, so
    its query point costs one AND.  The root evaluation rides in level 1's
    batch, and each later level is a batch of its own, so a run over b >= 1
    columns takes at most b rounds; over no columns the root is a batch of
    one.
    An all-zero root returns no buckets, having also asked level 1's
    point.  Once every bucket has vanished, each later level asks an empty
    batch, which the oracle neither charges nor counts as a round.  A run
    over the first t columns of H returns the buckets of level t.  A tau
    that is negative or not finite raises ParameterError before any query.
    """
    check_tau(tau)
    n = f.n
    if H.n != n:
        raise DimensionError(f"oracle is over n={n}, expected {H.n}")
    ones = BitVector.ones(n)
    full = ones.mask
    # level 1 asks one point, the complement of column 1, which does not
    # depend on the root's value, so the two share a round; over no columns
    # the root asks alone
    first = [BitVector(n, full ^ column.mask) for column in H.columns[:1]]
    root, *level1 = f.batch_eval([ones, *first])
    if transcript is not None:
        log_query(transcript, Label(0), ones, root)
    if abs(root) <= tau:
        if first and transcript is not None:
            log_query(transcript, Label(0), first[0], level1[0])
        return []
    # a bucket: label bits, sum, candidate set (the coordinates outside the
    # columns its label records a 0 at), and the earlier buckets below it
    buckets: list[tuple[int, float, int, list[int]]] = [(0, root, full, [])]
    for t, column in enumerate(H.columns):
        # the column lies inside the n coordinates, so XOR complements it;
        # a bucket's query point is its 0-child's candidate set, a sub-mask
        # of the n coordinates, so it skips BitVector's checks
        keep = full ^ column.mask
        queries = []
        for bucket in buckets:
            x = _new(BitVector)
            x.n = n
            x.mask = bucket[2] & keep
            queries.append(x)
        measurements = f.batch_eval(queries) if t else level1
        if transcript is not None:
            for (m, *_), x, v in zip(buckets, queries, measurements):
                log_query(transcript, Label(t, m), x, v)
        bit = 1 << t
        # per bucket: its 0-child sum and its (0-child, 1-child) pair of
        # next-level indices, None for a child that vanished
        settled: list[tuple[float, int | None, int | None]] = []
        children: list[tuple[int, float, int, list[int]]] = []
        for (m, v, free, row), x, v0 in zip(buckets, queries, measurements):
            # back-substitute in row order, as solve_bin_system does; a
            # c-child of a bucket below lies below the 1-child, and its
            # 0-child below the 0-child too
            below0: list[int] = []
            below1: list[int] = []
            for j in row:
                u0, k0, k1 = settled[j]
                v0 -= u0
                if k0 is not None:
                    below0.append(k0)
                    below1.append(k0)
                if k1 is not None:
                    below1.append(k1)
            z0 = z1 = None
            if abs(v0) > tau:
                z0 = len(children)
                children.append((m, v0, x.mask, below0))
                below1.append(z0)
            v1 = v - v0
            if abs(v1) > tau:
                z1 = len(children)
                children.append((m | bit, v1, free, below1))
            settled.append((v0, z0, z1))
        buckets = children
    return [(Label(H.b, m), v, free, row) for m, v, free, row in buckets]


def pasmt_run(
    f: CountingOracle,
    H: TestMatrix,
    d: int,
    tau: float = DEFAULT_TAU,
    transcript: TextIO | None = None,
) -> SparsePolynomial:
    """Recover the coefficient map of the oracle through a d-disjunct matrix.

    Exact when H is d-disjunct, the true degree is at most d, no nonempty
    subset of true coefficients sums to within tau of zero, and every
    coefficient magnitude exceeds tau.  A bucket whose decoded support is
    inconsistent with its label raises ReconstructionError carrying the
    bucket's label, and one whose support has weight above d the degree
    overflow every runner raises (see decode_disjunct).  The transcript gets
    one line per query holding the oracle's raw value f(x).
    """
    if d < 1:
        raise ParameterError(f"need d >= 1, got {d}")
    entries: dict[BitVector, float] = {}
    for label, value, free, _ in refine_levels(f, H, tau, transcript):
        entries[decode_disjunct(H, label, d, free)] = value
    return SparsePolynomial(f.n, entries, degree_bound=d)
