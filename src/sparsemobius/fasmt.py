"""Depth-first sparse reconstruction with fully sequential queries.

Instead of refining every bucket per matrix column, this walker descends
one bucket at a time, asking the splitting tree of the adaptive group
tester which test vector to apply next.  A single evaluation of the
residual function (the oracle minus everything already discovered) splits
the bucket into its 0- and 1-children; vanishing children are dropped when
popped.  When the tree terminates, the bucket's label pins a unique support
of weight at most d and its sum is the coefficient.

One engine runs these searches for both this runner and the hybrid one.
Each stack entry carries its label as (length, mask) integers, an
immutable splitting-tree state over the bucket's universe of candidate
coordinates, and a residual list: the discovered coefficients whose
supports avoid the entry's zero union, in discovery order, which are the
only ones that can lie below its query points.  The 0-child keeps the
pairs subtracted at its parent's query; the 1-child extends its parent's
list by whatever its 0-sibling's subtree found.  A child is advanced to its
own tree state only when it is popped with a nonzero sum.  Pushing the
1-child before the 0-child processes a bucket's descendants in
lexicographic label order.

Searches of several buckets run side by side, one query per bucket per
adaptive round.  A bucket starts in the round after the last bucket whose
label lies below its own finishes, so running buckets are pairwise
incomparable and none of their coefficients lies below another's query
points.  This runner has a single root bucket, so every query is its own
round and the query count is at most 1 + s * (the splitting tree's test
budget).
"""

from __future__ import annotations

from typing import Sequence, TextIO

from .core import MAX_LABEL_LENGTH, BitVector, Label, log_query
from .errors import (
    CapacityError,
    DimensionError,
    InfeasiblePrefixError,
    ParameterError,
    ReconstructionError,
)
from .grouptest import GbsaTree
from .grouptest import gbsa_step  # unused here; the benchmark's traced run looks it up
from .oracle import DEFAULT_TAU, CountingOracle, SparsePolynomial

__all__ = ["split_bin", "depth_first_search", "fasmt_run"]


def split_bin(
    value: float, x: BitVector, raw: float, residual: list[tuple[int, float]]
) -> tuple[float, float, list[tuple[int, float]]]:
    """Split a bucket of sum value by the oracle's raw value at its query point x.

    residual lists (support mask, coefficient) pairs in discovery order and
    must hold every discovered coefficient whose support lies below x.  The
    residual at x (raw minus those coefficients) is the 0-child sum.
    Returns (0-child sum, 1-child sum, the pairs subtracted); the two sums
    add up to the bucket value.
    """
    xm = x.mask
    below = [pair for pair in residual if pair[0] & xm == pair[0]]
    for _, c in below:
        raw -= c
    return raw, value - raw, below


def _next_query(
    n: int, tree: GbsaTree, stack: list, own: list, tau: float, found: dict[int, float]
) -> tuple | None:
    """Pop a search's stack to its next pending entry, recording every
    coefficient the tree pins down on the way in own and found; None once
    the stack is empty."""
    while stack:
        length, mask, value, union, residual, mark, state, outcome = stack.pop()
        if abs(value) <= tau:
            continue
        if outcome is not None:
            try:
                state = tree.advance(state, outcome)
            except InfeasiblePrefixError as err:
                label = Label(length, mask)
                raise ReconstructionError(
                    f"degree overflow at bucket {label.to01()!r}: {err}", label=label
                ) from err
        if state.test is not None:
            # what the search found since the entry was pushed (a 1-child's
            # 0-sibling subtree) avoids the entry's zero union as well
            if mark < len(own):
                residual = residual + own[mark:]
            return length, mask, value, union, residual, state
        if state.found in found:
            raise ReconstructionError(
                f"support {BitVector(n, state.found).to01()!r} decoded twice",
                label=Label(length, mask),
            )
        found[state.found] = value
        own.append((state.found, value))
    return None


def depth_first_search(
    f: CountingOracle,
    buckets: Sequence[tuple[Label, float, int, int, Sequence[int]]],
    d: int,
    tau: float,
    transcript: TextIO | None = None,
) -> dict[BitVector, float]:
    """Finish buckets by splitting searches, one batched round per step.

    Each bucket is (label, sum, zero union, universe, below): the union of
    the tests its label records a 0 at, the mask of coordinates its
    supports may use, and the indices of the earlier buckets whose labels
    lie componentwise below its own.  A bucket starts in the round after
    the last bucket on its list finishes, with the coefficients found so
    far that avoid its zero union as its residual list.  Returns every
    recovered coefficient.  A support of weight above d surfaces as
    ReconstructionError (degree overflow) carrying the label of the bucket
    where the tree ran out.
    """
    n = f.n
    full = (1 << n) - 1
    waiting = []
    dependents: list[list[int]] = [[] for _ in buckets]
    for i, bucket in enumerate(buckets):
        for j in bucket[4]:
            if not 0 <= j < i:
                raise ParameterError(f"bucket {i} must list earlier buckets only")
            dependents[j].append(i)
        waiting.append(len(bucket[4]))
    found: dict[int, float] = {}
    ready = [i for i, count in enumerate(waiting) if not count]

    def finish(i: int) -> None:
        for j in dependents[i]:
            waiting[j] -= 1
            if not waiting[j]:
                ready.append(j)

    active: list[tuple] = []
    while True:
        # the loop also starts the buckets that a bucket needing no query
        # releases
        for i in ready:
            label, value, union, universe, _ = buckets[i]
            tree = GbsaTree(universe, d)
            residual = [pair for pair in found.items() if pair[0] & union == 0]
            stack = [(label.length, label.mask, value, union, residual, 0, tree.start(), None)]
            own: list[tuple[int, float]] = []
            pending = _next_query(n, tree, stack, own, tau, found)
            if pending is None:
                finish(i)
            else:
                active.append((i, tree, stack, own, pending))
        ready.clear()
        if not active:
            break
        # union and test lie inside the n coordinates, so XOR complements
        xs = [BitVector(n, full ^ (p[3] | p[5].test)) for _, _, _, _, p in active]
        raws = f.batch_eval(xs)
        still = []
        for (i, tree, stack, own, pending), x, raw in zip(active, xs, raws):
            length, mask, value, union, residual, state = pending
            v0, v1, below = split_bin(value, x, raw, residual)
            if transcript is not None:
                log_query(transcript, Label(length, mask), x, v0)
            if length >= MAX_LABEL_LENGTH:
                raise CapacityError(
                    f"label length {length + 1} exceeds {MAX_LABEL_LENGTH}"
                )
            # label length and mask, sum, zero union, residual list, the
            # search's find count at push, parent tree state, outcome
            mark = len(own)
            stack.append((length + 1, mask | 1 << length, v1, union, residual, mark, state, 1))
            stack.append((length + 1, mask, v0, union | state.test, below, mark, state, 0))
            pending = _next_query(n, tree, stack, own, tau, found)
            if pending is None:
                finish(i)
            else:
                still.append((i, tree, stack, own, pending))
        active = still
    return {BitVector(n, k): v for k, v in found.items()}


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
    log_query(transcript, Label.empty(), ones, root)
    root_bucket = (Label.empty(), root, 0, ones.mask, ())
    discovered = depth_first_search(f, [root_bucket], d, tau, transcript)
    return SparsePolynomial(n, discovered, degree_bound=d)
