"""Depth-first sparse reconstruction with fully sequential queries.

Instead of refining every bucket per matrix column, this walker descends
one bucket at a time, asking the splitting tree of the adaptive group
tester which test vector to apply next.  A single evaluation of the
residual function (the oracle minus everything already discovered) splits
the bucket into its 0- and 1-children; vanishing children are dropped when
popped.  When the tree terminates, the bucket's label pins a unique support
of weight at most d and its sum is the coefficient.

One engine runs these searches for both this runner and the hybrid one.
Each stack entry carries an immutable splitting-tree state over the
bucket's universe of candidate coordinates; a child is advanced to its own
state only when it is popped with a nonzero sum.  Pushing the 1-child
before the 0-child processes a bucket's descendants in lexicographic label
order.  Searches of several incomparable buckets run side by side, one
query per bucket per adaptive round; this runner has a single root bucket,
so every query is its own round and the query count is at most
1 + s * (the splitting tree's test budget).
"""

from __future__ import annotations

from math import ceil, log2
from typing import Iterable, Mapping, TextIO

from .core import BitVector, Label
from .errors import (
    DimensionError,
    InfeasiblePrefixError,
    ParameterError,
    ReconstructionError,
)
from .grouptest import GbsaTree
from .grouptest import gbsa_step  # unused here; the benchmark's traced run looks it up
from .oracle import DEFAULT_TAU, CountingOracle, SparsePolynomial

__all__ = ["split_bin", "depth_first_search", "fasmt_run", "fasmt_run_auto_degree"]


def split_bin(
    value: float, x: BitVector, raw: float, discovered: Mapping[BitVector, float]
) -> tuple[float, float]:
    """Split a bucket of sum value by the oracle's raw value at its query point x.

    The residual at x (raw minus the discovered coefficients whose support
    lies below x) is the 0-child sum.  Returns (0-child sum, 1-child sum);
    the two add up to the bucket value.
    """
    nx = ~x.mask
    for k, c in discovered.items():
        if k.mask & nx == 0:
            raw -= c
    return raw, value - raw


def _log(transcript: TextIO | None, label: Label, x: BitVector, value: float) -> None:
    if transcript is not None:
        transcript.write(f"{label.to01()}\t{x.to01()}\t{value!r}\n")


def _next_query(
    n: int, tree: GbsaTree, stack: list, tau: float, discovered: dict[BitVector, float]
) -> tuple | None:
    """Pop a search's stack to its next pending entry, recording every
    coefficient the tree pins down on the way; None once the stack is empty."""
    while stack:
        label, value, union, state, outcome = stack.pop()
        if abs(value) <= tau:
            continue
        if outcome is not None:
            try:
                state = tree.advance(state, outcome)
            except InfeasiblePrefixError as err:
                raise ReconstructionError(
                    f"degree overflow at bucket {label.to01()!r}: {err}", label=label
                ) from err
        if state.test is not None:
            return label, value, union, state
        support = BitVector(n, state.found)
        if support in discovered:
            raise ReconstructionError(
                f"support {support.to01()!r} decoded twice", label=label
            )
        discovered[support] = value
    return None


def depth_first_search(
    f: CountingOracle,
    buckets: Iterable[tuple[Label, float, int, int]],
    d: int,
    tau: float,
    discovered: dict[BitVector, float],
    transcript: TextIO | None = None,
) -> None:
    """Finish buckets by splitting searches, one batched round per step.

    Each bucket is (label, sum, zero union, universe): the union of the
    tests its label records a 0 at, and the mask of coordinates its
    supports may use.  The buckets must be pairwise incomparable, so no
    bucket's coefficients lie below another bucket's query points.  Every
    recovered coefficient is added to discovered.  A support of weight
    above d surfaces as ReconstructionError (degree overflow) carrying the
    label of the bucket where the tree ran out.
    """
    n = f.n
    full = (1 << n) - 1
    active = []
    for label, value, union, universe in buckets:
        tree = GbsaTree(universe, d)
        stack = [(label, value, union, tree.start(), None)]
        pending = _next_query(n, tree, stack, tau, discovered)
        if pending is not None:
            active.append((tree, stack, pending))
    while active:
        xs = [
            BitVector(n, full & ~(union | state.test))
            for _, _, (_, _, union, state) in active
        ]
        raws = f.batch_eval(xs)
        still = []
        for (tree, stack, pending), x, raw in zip(active, xs, raws):
            label, value, union, state = pending
            v0, v1 = split_bin(value, x, raw, discovered)
            _log(transcript, label, x, v0)
            stack.append((label.append(1), v1, union, state, 1))
            stack.append((label.append(0), v0, union | state.test, state, 0))
            pending = _next_query(n, tree, stack, tau, discovered)
            if pending is not None:
                still.append((tree, stack, pending))
        active = still


def fasmt_run(
    f: CountingOracle,
    n: int,
    d: int,
    tau: float = DEFAULT_TAU,
    transcript: TextIO | None = None,
) -> SparsePolynomial:
    """Recover the coefficient map of the oracle depth-first.

    Exact under the same conditions as the breadth-first runner whenever
    the true degree is at most d.  A true degree above d surfaces as
    ReconstructionError (degree overflow) carrying the offending label.
    """
    if f.n != n:
        raise DimensionError(f"oracle is over n={f.n}, expected {n}")
    if d < 1:
        raise ParameterError(f"need d >= 1, got {d}")
    ones = BitVector.ones(n)
    root = f.eval(ones)
    _log(transcript, Label.empty(), ones, root)
    discovered: dict[BitVector, float] = {}
    root_bucket = (Label.empty(), root, 0, ones.mask)
    depth_first_search(f, [root_bucket], d, tau, discovered, transcript)
    return SparsePolynomial(n, discovered, degree_bound=d)


def fasmt_run_auto_degree(
    f: CountingOracle,
    n: int,
    d: int = 1,
    tau: float = DEFAULT_TAU,
    transcript: TextIO | None = None,
) -> tuple[SparsePolynomial, int]:
    """Restart with doubled d on degree overflow, up to ceil(log2 n) times.

    Returns the recovered map and the degree bound that succeeded.  Queries
    from abandoned attempts stay in the counting oracle.
    """
    attempts = ceil(log2(n)) if n > 1 else 1
    bound = min(d, n)
    for _ in range(attempts + 1):
        try:
            return fasmt_run(f, n, bound, tau, transcript), bound
        except ReconstructionError:
            if bound >= n:
                raise
            bound = min(2 * bound, n)
    raise ReconstructionError(f"no degree bound up to {bound} succeeded")
