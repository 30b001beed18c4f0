"""Adaptive and non-adaptive group-testing machinery.

Two independent tools live here.  The adaptive side is generalized binary
splitting (Hwang's classic scheme): a deterministic decision tree that finds
every defective coordinate among n with at most d * (ceil(log2(n/d)) + 2) + d
tests.  It is an explicit state machine over a universe mask: each node of
the tree is an immutable state, and one outcome advances it with a few
big-integer operations, so a caller can walk many branches of the tree side
by side.  The non-adaptive side builds d-disjunct test matrices
(Reed-Solomon concatenation, with an identity fallback) plus randomized
list-disjunct designs, together with the naive cover decoder for both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, NamedTuple

from .core import BitVector, Label, TestMatrix
from .errors import (
    CapacityError,
    DecodeError,
    DimensionError,
    InfeasiblePrefixError,
    ParameterError,
)
from .rng import SplitMix64, random_subset

__all__ = [
    "GbsaTest",
    "GbsaResult",
    "GbsaAction",
    "GbsaState",
    "GbsaTree",
    "gbsa_step",
    "gbsa_run",
    "gbsa_test_budget",
    "identity_matrix",
    "construct_disjunct",
    "verify_disjunct",
    "decode_disjunct",
    "ListDesign",
    "construct_list_disjunct",
    "list_decode",
]

VERIFY_WORK_CAP = 10**8


class GbsaTest(NamedTuple):
    """Next action: apply this test vector and report the binary outcome."""

    vector: BitVector


class GbsaResult(NamedTuple):
    """Terminal action: the defective set is fully determined."""

    vector: BitVector


GbsaAction = GbsaTest | GbsaResult


def gbsa_test_budget(n: int, d: int) -> int:
    """Worst-case number of tests for weight <= d among n coordinates."""
    if n < 0 or d < 1:
        raise ParameterError(f"need n >= 0 and d >= 1, got n={n}, d={d}")
    if n <= d:
        return n
    return d * (math.ceil(math.log2(n / d)) + 2) + d


def _lowest(mask: int, k: int) -> int:
    """The k lowest set bits of mask, which has at least k set bits."""
    lo = (mask & -mask).bit_length() - 1 + k
    hi = mask.bit_length()
    # smallest cut t with k set bits below it, by bisection on t
    while lo < hi:
        mid = (lo + hi) // 2
        if (mask & ((1 << mid) - 1)).bit_count() < k:
            lo = mid + 1
        else:
            hi = mid
    return mask & ((1 << lo) - 1)


class GbsaState(NamedTuple):
    """One node of the splitting tree, as a handful of masks.

    block indexes the current block and remaining holds its coordinates not
    yet found.  window is 0 while the whole remaining block is under test;
    otherwise it holds the candidates for the block's next defective and its
    lower half is under test.  found and count are the defectives identified
    so far.  test is the pending test mask, or None once the tree has
    terminated and found is the defective set.
    """

    block: int
    remaining: int
    window: int
    found: int
    count: int
    test: int | None


class GbsaTree:
    """Generalized binary splitting over a universe of coordinates.

    The universe is a mask; its set coordinates, in ascending order, are cut
    into contiguous blocks (the first m mod d one larger, or singletons when
    d >= m).  Each block is tested whole; a positive block is binary-searched
    for its lowest defective, which is removed before the block is tested
    again.  States are immutable, so one tree serves any number of branches.
    """

    __slots__ = ("blocks", "d")

    def __init__(self, universe: int, d: int):
        if d < 1:
            raise ParameterError(f"need d >= 1, got {d}")
        m = universe.bit_count()
        if d >= m:
            sizes = [1] * m
        else:
            q, r = divmod(m, d)
            sizes = [q + 1] * r + [q] * (d - r)
        blocks = []
        for size in sizes:
            block = _lowest(universe, size)
            blocks.append(block)
            universe ^= block
        self.blocks = tuple(blocks)
        self.d = d

    def start(self) -> GbsaState:
        """The root of the tree: the first block's test, or the empty result."""
        return self._settle(-1, 0, 0, 0, 0)

    def advance(self, state: GbsaState, outcome: int) -> GbsaState:
        """The child of a pending state along one test outcome.

        Raises InfeasiblePrefixError once the outcomes imply more than d
        defectives.
        """
        block, remaining, window, found, count, test = state
        if window:
            window = test if outcome else window ^ test
        elif outcome:
            window = remaining
        else:
            remaining = 0
        return self._settle(block, remaining, window, found, count)

    def _settle(
        self, block: int, remaining: int, window: int, found: int, count: int
    ) -> GbsaState:
        """Take the forced steps (a one-candidate window is a defective, an
        exhausted block hands over to the next) until a test is pending."""
        while True:
            if window & (window - 1):
                half = _lowest(window, (window.bit_count() + 1) // 2)
                return GbsaState(block, remaining, window, found, count, half)
            if window:
                found |= window
                count += 1
                if count > self.d:
                    raise InfeasiblePrefixError(
                        f"outcomes imply more than d={self.d} defectives"
                    )
                remaining ^= window
                window = 0
            if remaining:
                return GbsaState(block, remaining, 0, found, count, remaining)
            block += 1
            if block == len(self.blocks):
                return GbsaState(block, 0, 0, found, count, None)
            remaining = self.blocks[block]


def _mask_of(indices: list[int]) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def gbsa_step(label: Label, n: int, d: int) -> GbsaAction:
    """Walk the splitting tree along an outcome prefix.

    Feeds the bits of the label to the decision tree in order.  If the tree
    wants another outcome, the pending test vector comes back as GbsaTest;
    if it terminates after consuming the whole label, the determined
    defective set comes back as GbsaResult.  A label the tree cannot
    realize raises InfeasiblePrefixError.
    """
    if n < 0 or d < 1:
        raise ParameterError(f"need n >= 0 and d >= 1, got n={n}, d={d}")
    tree = GbsaTree((1 << n) - 1, d)
    state = tree.start()
    for bit in label.bits():
        if state.test is None:
            raise InfeasiblePrefixError(
                f"label {label.to01()!r} extends past the decision tree"
            )
        state = tree.advance(state, bit)
    if state.test is None:
        return GbsaResult(BitVector(n, state.found))
    return GbsaTest(BitVector(n, state.test))


def gbsa_run(
    tester: Callable[[BitVector], int], n: int, d: int
) -> tuple[BitVector, int]:
    """Drive the splitting tree against a live tester.

    Returns the defective set and the number of tests consumed, which never
    exceeds gbsa_test_budget(n, d).
    """
    if n < 0 or d < 1:
        raise ParameterError(f"need n >= 0 and d >= 1, got n={n}, d={d}")
    tree = GbsaTree((1 << n) - 1, d)
    state = tree.start()
    used = 0
    while state.test is not None:
        outcome = 1 if tester(BitVector(n, state.test)) else 0
        used += 1
        state = tree.advance(state, outcome)
    return BitVector(n, state.found), used


def identity_matrix(n: int) -> TestMatrix:
    """One private test per coordinate; d-disjunct for every d <= n - 1."""
    return TestMatrix(n, [BitVector(n, 1 << i) for i in range(n)])


def _bit_tests(n: int) -> TestMatrix:
    """Per-bit set/clear tests over 0-based item indices; 1-disjunct."""
    width = max(1, (n - 1).bit_length())
    full = (1 << n) - 1
    cols = []
    for p in range(width):
        ones = _mask_of([j for j in range(n) if (j >> p) & 1])
        cols.append(BitVector(n, ones))
        cols.append(BitVector(n, full ^ ones))
    return TestMatrix(n, cols)


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    i = 2
    while i * i <= q:
        if q % i == 0:
            return False
        i += 1
    return True


def _rs_concat(n: int, q: int, m: int) -> TestMatrix:
    """Reed-Solomon code over GF(q) of message length m, concatenated with
    the identity: test (position, symbol) contains item j iff j's codeword
    carries that symbol at that position.  Zero and duplicate test columns
    carry no information and are dropped."""
    cols = [0] * (q * q)
    for j in range(n):
        digits = []
        v = j
        for _ in range(m):
            digits.append(v % q)
            v //= q
        for alpha in range(q):
            acc = 0
            power = 1
            for digit in digits:
                acc = (acc + digit * power) % q
                power = (power * alpha) % q
            cols[alpha * q + acc] |= 1 << j
    seen: set[int] = set()
    kept = []
    for mask in cols:
        if mask and mask not in seen:
            seen.add(mask)
            kept.append(BitVector(n, mask))
    return TestMatrix(n, kept)


def construct_disjunct(n: int, d: int) -> TestMatrix:
    """Deterministic d-disjunct matrix with as few tests as the search finds.

    Candidates are the identity, a per-bit design when d = 1, and
    Reed-Solomon concatenations over prime fields q with q >= d*(m-1) + 1
    where m = ceil(log_q n).  The smallest column count wins; ties keep the
    earlier candidate, so results are deterministic.
    """
    if n < 2:
        raise ParameterError(f"need n >= 2, got {n}")
    if not 1 <= d < n:
        raise ParameterError(f"need 1 <= d < n, got d={d}")
    best = identity_matrix(n)
    if d == 1:
        cand = _bit_tests(n)
        if cand.b < best.b:
            best = cand
    q = 2
    stop = max(d + 1, math.isqrt(n - 1) + 1)
    while True:
        if _is_prime(q):
            m = 1
            while q**m < n:
                m += 1
            if m >= 2 and q >= d * (m - 1) + 1 and q * q < best.b:
                cand = _rs_concat(n, q, m)
                if cand.b < best.b:
                    best = cand
            if q >= stop:
                break
        elif q >= stop:
            break
        q += 1
    return best


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


def decode_disjunct(H: TestMatrix, label: Label, d: int) -> BitVector:
    """Naive cover decoding of a full syndrome.

    Coordinate i is declared present iff every test containing i is
    positive in the label.  The decoded support is then re-encoded; any
    mismatch with the label (the signature of degree overflow or a
    non-disjunct matrix) raises DecodeError.
    """
    if label.length != H.b:
        raise DimensionError(f"label length {label.length} != column count {H.b}")
    lmask = label.mask
    support = 0
    for i, row in enumerate(H.row_masks):
        if row & ~lmask == 0:
            support |= 1 << i
    syndrome = 0
    for t, col in enumerate(H.columns):
        if col.mask & support:
            syndrome |= 1 << t
    if syndrome != lmask:
        raise DecodeError(
            f"decoded support is inconsistent with syndrome {label.to01()!r}"
        )
    return BitVector(H.n, support)


@dataclass(frozen=True)
class ListDesign:
    """Randomized list-disjunct design.

    list_bound is the largest candidate-set size observed while decoding
    random weight <= d syndromes at construction time; it is an audited
    estimate, not a certificate.
    """

    matrix: TestMatrix
    d: int
    list_bound: int
    seed: int
    audit_trials: int

    @property
    def n(self) -> int:
        return self.matrix.n

    @property
    def b(self) -> int:
        return self.matrix.b


def construct_list_disjunct(
    n: int,
    d: int,
    seed: int,
    columns_factor: float = 4.0,
    audit_trials: int = 256,
) -> ListDesign:
    """Random Bernoulli(1/(d+1)) design with ceil(columns_factor*d*log2 n)
    tests, audited by decoding random low-weight syndromes."""
    if n < 2:
        raise ParameterError(f"need n >= 2, got {n}")
    if not 1 <= d < n:
        raise ParameterError(f"need 1 <= d < n, got d={d}")
    if columns_factor <= 0:
        raise ParameterError(f"columns_factor must be positive, got {columns_factor}")
    b = max(1, math.ceil(columns_factor * d * math.log2(n)))
    rng = SplitMix64(seed)
    cols = []
    for _ in range(b):
        mask = 0
        for i in range(n):
            if rng.below(d + 1) == 0:
                mask |= 1 << i
        cols.append(BitVector(n, mask))
    matrix = TestMatrix(n, cols)
    rows = matrix.row_masks
    bound = 1
    for _ in range(max(1, audit_trials)):
        weight = 1 + rng.below(d)
        support = BitVector.from_coords(n, random_subset(rng, n, weight))
        syndrome = 0
        for t, col in enumerate(cols):
            if col.mask & support.mask:
                syndrome |= 1 << t
        hits = sum(1 for row in rows if row & ~syndrome == 0)
        bound = max(bound, hits)
    return ListDesign(matrix, d, bound, seed, max(1, audit_trials))


def list_decode(design: ListDesign, label: Label) -> tuple[int, ...]:
    """Candidate coordinates (1-based, ascending) for a full syndrome.

    Sound by construction: every support consistent with the label is a
    subset of the returned set.  The size is only probabilistically small.
    """
    matrix = design.matrix
    if label.length != matrix.b:
        raise DimensionError(
            f"label length {label.length} != column count {matrix.b}"
        )
    lmask = label.mask
    return tuple(
        i + 1 for i, row in enumerate(matrix.row_masks) if row & ~lmask == 0
    )
