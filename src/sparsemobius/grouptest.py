"""Adaptive and non-adaptive group-testing machinery.

Two independent tools live here.  The adaptive side is generalized binary
splitting (Hwang's classic scheme): a deterministic decision tree that finds
every defective coordinate among n with at most d * (ceil(log2(n/d)) + 2) + d
tests.  It is an explicit state machine over a universe mask: each node of
the tree is an immutable state, and one outcome advances it with a few
big-integer operations, so a caller can walk many branches of the tree side
by side.  The depth-first engine (fasmt) takes only the blocks from
GbsaTree and steps the same rule in its own loop, on the state's five
integers; GbsaTree's start and advance are the reference walk that
gbsa_step and the tests use.  The non-adaptive side builds d-disjunct
test matrices (Reed-Solomon concatenation over a prime-power field GF(q),
plus the point at infinity, at the Kautz-Singleton point count
d*(m-1) + 1; a Sperner antichain at d = 1; an identity fallback) plus
list-disjunct designs, which are test matrices that keep their seed
(randomized at d >= 2, the Sperner antichain at d = 1), together with the
naive cover decoder for both.
Both builders work a whole column, or a whole evaluation point, at a time:
the Reed-Solomon symbols come from Horner's rule over base-q digits, by
lookups in GF(q)'s addition and multiplication tables (built once per q),
and their masks from one bytes translate each, and a list design's column
is one bernoulli_mask draw.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import chain, count
from typing import Iterable, NamedTuple

from .core import BitVector, Label, TestMatrix, build_query_vector
from .errors import (
    DimensionError,
    InfeasiblePrefixError,
    ParameterError,
    ReconstructionError,
)
from .rng import SplitMix64, bernoulli_mask

__all__ = [
    "GbsaState",
    "GbsaTree",
    "gbsa_step",
    "gbsa_test_budget",
    "identity_matrix",
    "construct_disjunct",
    "decode_disjunct",
    "ListDesign",
    "list_design_width",
    "construct_list_disjunct",
    "list_decode",
]

_WIDTH_GUARD_BITS = 128  # list_design_width's fixed-point bits beyond n's


def gbsa_test_budget(n: int, d: int) -> int:
    """Worst-case number of tests for weight <= d among n coordinates."""
    if n < 0 or d < 1:
        raise ParameterError(f"need n >= 0 and d >= 1, got n={n}, d={d}")
    if n <= d:
        return n
    return d * (math.ceil(math.log2(n / d)) + 2) + d


def _lowest(mask: int, k: int) -> int:
    """The k lowest set bits of mask, which has at least k set bits."""
    low = mask & -mask
    run = (low << k) - low
    if mask & run == run:
        return run  # the k bits from the lowest set bit up are all set
    lo = low.bit_length() - 1 + k
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
    lower half is under test.  found holds the defectives identified so
    far.  test is the pending test mask, or None once the tree has
    terminated and found is the defective set.
    """

    block: int
    remaining: int
    window: int
    found: int
    test: int | None


class GbsaTree:
    """Generalized binary splitting over a universe of coordinates.

    The universe is a mask; its set coordinates, in ascending order, are cut
    into contiguous blocks (the first m mod d one larger, or singletons when
    d >= m).  Each block is tested whole; a positive block is binary-searched
    for its lowest defective, which is removed before the block is tested
    again.  States are immutable, so one tree serves any number of branches.

    The depth-first engine reads only blocks and steps the rule of advance
    and _settle in its own loop, one query at a time without a call or a
    state object; start and advance are the reference walk, for gbsa_step
    and the tests.
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
        return self._settle(-1, 0, 0, 0)

    def advance(self, state: GbsaState, outcome: int) -> GbsaState:
        """The child of a pending state along one test outcome.

        Raises InfeasiblePrefixError once the outcomes imply more than d
        defectives.
        """
        block, remaining, window, found, test = state
        if window:
            window = test if outcome else window ^ test
        elif outcome:
            window = remaining
        else:
            remaining = 0
        return self._settle(block, remaining, window, found)

    def _settle(self, block: int, remaining: int, window: int, found: int) -> GbsaState:
        """Take the forced steps (a one-candidate window is a defective, an
        exhausted block hands over to the next) until a test is pending."""
        while True:
            if window & (window - 1):
                half = _lowest(window, (window.bit_count() + 1) // 2)
                return GbsaState(block, remaining, window, found, half)
            if window:
                found |= window
                if found.bit_count() > self.d:
                    raise InfeasiblePrefixError(
                        f"outcomes imply more than d={self.d} defectives"
                    )
                remaining ^= window
                window = 0
            if remaining:
                return GbsaState(block, remaining, 0, found, remaining)
            block += 1
            if block == len(self.blocks):
                return GbsaState(block, 0, 0, found, None)
            remaining = self.blocks[block]


def gbsa_step(label: Label, n: int, d: int) -> GbsaState:
    """Walk the splitting tree over coordinates 1..n along an outcome prefix.

    Feeds the label's outcomes to the tree in order and returns the state
    it reaches: a pending test, or test None once the tree has terminated
    and found is the defective set.  A label the tree cannot realize
    raises InfeasiblePrefixError.
    """
    if n < 0 or d < 1:
        raise ParameterError(f"need n >= 0 and d >= 1, got n={n}, d={d}")
    tree = GbsaTree((1 << n) - 1, d)
    state = tree.start()
    for i in range(label.n):
        if state.test is None:
            raise InfeasiblePrefixError(
                f"label {label.to01()!r} extends past the decision tree"
            )
        state = tree.advance(state, (label.mask >> i) & 1)
    return state


def identity_matrix(n: int) -> TestMatrix:
    """One private test per coordinate; d-disjunct for every d <= n - 1."""
    return TestMatrix(n, [BitVector(n, 1 << i) for i in range(n)])


def _sperner_tests(n: int) -> TestMatrix:
    """w tests, w >= 2 the least with C(w, floor(w/2)) >= n, and item j
    (0-based) in the tests of the j-th floor(w/2)-subset of the w in
    lexicographic order, as itertools.combinations lists them.  No item's
    tests contain another's (equal-size distinct sets), and each item is
    in at least one, so the matrix is 1-disjunct (Sperner 1928).

    In lexicographic order the k-subsets of a..w-1 are those holding a,
    then those that do not, so each test's mask over them is its mask over
    the (k-1)-subsets of a+1..w-1 with its mask over the k-subsets joined
    above.  A table over (a, k) builds every mask once, in O(w 2^w) bits
    of big-integer work; a loop over the items would OR each item into w/2
    masks of n bits.
    """
    w = 2
    while math.comb(w, w // 2) < n:
        w += 1

    @cache
    def masks(a: int, k: int) -> tuple[int, ...]:
        # the masks of tests a..w-1 over the k-subsets of a..w-1
        if k == 0 or k == w - a:
            return (1 if k else 0,) * (w - a)  # one subset: none of a..w-1, or all
        split = math.comb(w - a - 1, k - 1)  # the subsets that hold a
        held, rest = masks(a + 1, k - 1), masks(a + 1, k)
        return ((1 << split) - 1, *(x | y << split for x, y in zip(held, rest)))

    full = (1 << n) - 1
    return TestMatrix(n, [BitVector(n, mask & full) for mask in masks(0, w // 2)])


def _prime_power(q: int) -> tuple[int, int] | None:
    """(p, k) with q = p**k, p prime and k >= 1, or None; needs q >= 2."""
    p = next((i for i in range(2, math.isqrt(q) + 1) if q % i == 0), q)
    k = 0
    while q % p == 0:
        q //= p
        k += 1
    return (p, k) if q == 1 else None


@cache
def _gf_modulus(p: int, k: int) -> int:
    """The lexicographically first monic irreducible polynomial of degree k
    over GF(p), coefficients compared from x^(k-1) down, as the integer
    whose i-th base-p digit is its coefficient of x^i: the least such
    integer in [p^k, 2 p^k).  At k = 1 it is x, the integer p.

    A monic polynomial of degree k is reducible iff it is the product of
    monic ones of degrees i and k - i for some 1 <= i <= k/2, so the sieve
    multiplies out those pairs, about (k/2) p^k products.
    """

    def monic(i: int) -> list[list[int]]:
        # the monic polynomials of degree i, as coefficient lists from x^0 up
        return [[e // p**j % p for j in range(i)] + [1] for e in range(p**i)]

    def product(a: list[int], b: list[int]) -> int:
        c = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                c[i + j] = (c[i + j] + x * y) % p
        return sum(v * p**i for i, v in enumerate(c))

    reducible = {
        product(a, b) for i in range(1, k // 2 + 1) for a in monic(i) for b in monic(k - i)
    }
    return next(f for f in count(p**k) if f not in reducible)


@cache
def _gf_tables(q: int) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """The addition and multiplication tables of GF(q), q = p^k a prime
    power, over the elements 0..q-1: element e is the polynomial over GF(p)
    whose coefficient of x^i is e's i-th base-p digit, and products are
    reduced modulo _gf_modulus(p, k).  At k = 1 they are arithmetic mod p.
    They are cached per q, so they are tuples, which no caller can change.

    Addition is digit-wise, so its table over p^(i+1) elements is the one
    over p^i with a lowest digit joined.  With b = b0 + x*b' (b0 its
    lowest digit), a*b = b0*a + x*(a*b'), and b' < b, so each row of the
    product fills in increasing b by table lookups: O(q^2) steps in all.
    """
    p, k = _prime_power(q)
    add = [[0]]
    for _ in range(k):
        add = [
            [(a0 + b0) % p + p * row[b1] for b1 in range(len(row)) for b0 in range(p)]
            for row in add
            for a0 in range(p)
        ]

    def multiples(a: int) -> list[int]:
        # c*a for c = 0..p-1
        out = [0]
        for _ in range(p - 1):
            out.append(add[out[-1]][a])
        return out

    # x^k is minus the modulus's terms below x^k, and e*x shifts e's digits
    # up one place, its x^(k-1) digit t leaving t*x^k
    top = q // p
    carry = multiples(add[_gf_modulus(p, k) - q].index(0))
    times_x = [add[p * (e % top)][carry[e // top]] for e in range(q)]
    mul = []
    for a in range(q):
        row = multiples(a)
        for b in range(p, q):
            row.append(add[row[b % p]][times_x[row[b // p]]])
        mul.append(tuple(row))
    return tuple(map(tuple, add)), tuple(mul)


def _rs_concat(n: int, q: int, m: int, points: int) -> TestMatrix:
    """Reed-Solomon code over GF(q), q a prime power, of message length m,
    concatenated with the identity: test (position, symbol) contains item
    j iff j's codeword carries that symbol at that position.  Up to q
    points are the field elements alpha = 0..points-1, and points = q + 1
    adds the point at infinity, whose symbol is the coefficient of
    x^(m-1).  Zero and duplicate test columns carry no information and are
    dropped.

    Item j's codeword is the polynomial whose coefficient of x^i is j's
    i-th base-q digit.  Two items' polynomials have degree below m, so
    they agree on at most m - 1 field points; where their x^(m-1)
    coefficients agree their difference has degree below m - 1, so
    counting infinity they still agree on at most m - 1 of the points (the
    doubly-extended code is MDS).  With points >= d*(m-1) + 1, any d other
    codewords miss one of an item's symbols, and the matrix is d-disjunct
    (Kautz-Singleton).

    Item j = j0 + q*j' (j0 its lowest base-q digit) carries the symbol
    j0 + alpha * symbol(j') at point alpha, so each point's symbols take
    one pass per digit, Horner's rule over the items below ceil(n / q^i),
    and each pass joins one precomputed q-symbol run per item of the pass
    before.  Where q < 256 each symbol's mask is read off the symbol bytes
    by one translate.  At infinity symbol s holds the contiguous items
    s*q^(m-1) to (s+1)*q^(m-1) - 1 below n, one range mask each.
    """
    add, mul = _gf_tables(q)
    cols = []
    for alpha in range(min(points, q)):
        # after[s] lists the symbols of the items j0 + q*j', j0 = 0..q-1,
        # whose j' carries symbol s; add[t] lists t + j0 for j0 = 0..q-1
        after = [add[t] for t in mul[alpha]]
        syms = [0]  # the symbols of the items below ceil(n / q^(i+1))
        for i in range(m - 1, -1, -1):
            syms = list(chain.from_iterable(map(after.__getitem__, syms)))
            del syms[-(-n // q**i) :]  # keep the first ceil(n / q^i)
        if q < 256:
            text = bytes(syms)[::-1]  # item n-1 first, as int() reads it
            # the translate table for v takes byte v to b"1", the rest to b"0"
            cols += [
                int(text.translate(b"0" * v + b"1" + b"0" * (255 - v)), 2)
                for v in range(q)
            ]
        else:
            masks = [0] * q
            for j, sym in enumerate(syms):
                masks[sym] |= 1 << j
            cols += masks
    if points > q:
        block = q ** (m - 1)
        cols += [(1 << min(n, (s + 1) * block)) - (1 << min(n, s * block)) for s in range(q)]
    # dict.fromkeys keeps each column's first copy, in order
    return TestMatrix(n, [BitVector(n, mask) for mask in dict.fromkeys(cols) if mask])


def construct_disjunct(n: int, d: int) -> TestMatrix:
    """Deterministic d-disjunct matrix with as few tests as the search finds.

    Candidates are the identity, a Sperner design when d = 1 (the least
    w >= 2 tests with C(w, floor(w/2)) >= n, each item in its own
    floor(w/2) of them), and one Reed-Solomon concatenation per message
    length m >= 2: it evaluates at L = d*(m-1) + 1 points over the
    smallest prime-power field q with q**m >= n and q >= L - 1 (at
    q = L - 1 the last point is the one at infinity), so it has at most
    L*q tests.  The search minimises the test count, which is pasmt's
    round count: a Reed-Solomon candidate is scored L*q without being
    built, and only the narrowest is built.  Ties keep the earlier
    candidate (the Sperner design, then the smaller m), so results are
    deterministic, and the identity wins whenever no candidate is shorter,
    which includes every d >= n.  Since q >= L - 1, a candidate scores
    more than (L-1)^2, so the search over m stops once (L-1)^2 reaches the
    best width so far.
    """
    if n < 1 or d < 1:
        raise ParameterError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    best = None
    width = n
    if d == 1:
        cand = _sperner_tests(n)
        if cand.b < width:
            best, width = cand, cand.b
    field = None
    for m in count(2):
        points = d * (m - 1) + 1
        if (points - 1) ** 2 >= width:
            break
        q = max(points - 1, 2)
        while q**m < n or _prime_power(q) is None:
            q += 1
        if points * q < width:
            field, width = (q, m, points), points * q
    if field is not None:
        return _rs_concat(n, *field)
    return identity_matrix(n) if best is None else best


def _overflow(label: Label, d: int) -> ReconstructionError:
    """The degree overflow at the bucket labelled label, whose outcomes
    imply more than d defectives: every runner's one error for it.  A
    splitting search names the child where its tree ran out; a probed or
    decoded leaf names itself."""
    return ReconstructionError(
        f"degree overflow at bucket {label.to01()!r}: "
        f"outcomes imply more than d={d} defectives",
        label=label,
    )


def decode_disjunct(
    H: TestMatrix, label: Label, d: int, support: int | None = None
) -> BitVector:
    """Naive cover decoding of a full syndrome, checked against it.

    Coordinate i is declared present iff every test containing i is
    positive in the label, that is, iff i lies outside the union of the
    tests the label records a 0 at; that union is the label's query
    vector, so decoding ORs only the columns at the label's 0s, not a scan
    of the n rows.  A caller that already holds that support, as the level
    loop does for each leaf, passes its mask and the label is not decoded
    again; the outcome is the same.  A label whose length is not H's width
    raises DimensionError.  The support re-encodes to the label exactly
    when every column at a label 1 meets it, since the columns at its 0s
    avoid it by construction; a column that misses it (the signature of
    degree overflow or a non-disjunct matrix) raises ReconstructionError
    carrying the label, and a support of weight above d raises _overflow's
    degree overflow at the label.
    """
    columns = H.columns
    if label.n != len(columns):
        raise DimensionError(f"label length {label.n} != column count {len(columns)}")
    if support is None:
        support = build_query_vector(H, label).mask
    ones = label.mask
    while ones:
        low = ones & -ones
        if not columns[low.bit_length() - 1].mask & support:
            raise ReconstructionError(
                f"decoded support is inconsistent with syndrome {label.to01()!r}", label=label
            )
        ones ^= low
    if support.bit_count() > d:
        raise _overflow(label, d)
    return BitVector(H.n, support)


class ListDesign(TestMatrix):
    """List-disjunct design: a test matrix that keeps the seed
    construct_list_disjunct was given, randomized at d >= 2 (its columns
    are drawn from the seed) and the Sperner design at d = 1 (the seed is
    kept but not read).  Equality and hashing are the matrix's, by
    columns."""

    __slots__ = ("seed",)

    def __init__(self, n: int, columns: Iterable[BitVector], seed: int):
        super().__init__(n, columns)
        self.seed = seed


def list_design_width(n: int, d: int) -> int:
    """0 where n <= 2d, else the smallest b >= 1 with
    2 (n - d) (N - D)^b <= 3 L N^b, where N = (d+1)^(d+1), D = d^d and
    L = d * max(1, floor(log2(n / 2d))).

    With cells Bernoulli(p), p = 1/(d+1), a test drops a coordinate outside
    a weight-<= d support with probability at least p(1-p)^d = D/N, so b
    tests leave at most (n - d)(1 - D/N)^b false candidates in expectation,
    and this width caps that at 3L/2: O(d log(n/d)) tests, none exactly
    when n <= 2d, and at least one above it, so every leaf label has an
    outcome and hybrid's phase 2 may probe the leaf.  L is the list length
    that phase 2 of hybrid finishes more cheaply than phase 1 would shorten
    it.  A sweep over the acceptance grid (n 16-256, s 1-16, d 1-4, 100
    instances per cell) set it, with phase 2 searching every leaf: capping
    at d left phase 1 splitting buckets of at most d candidates; a
    constant 4d cut queries further but raised the rounds where n/d is
    small ((16, 4) from 8,520 to 15,171), and 6d or 8d raised the grid's
    total rounds above pasmt's.  The list length that minimises rounds
    grows with n/d, and the log rule follows it.  Once phase 2 finishes a
    one-coefficient leaf in one round (the engine's probe), a longer list
    costs fewer queries in phase 1 and few rounds in phase 2.  A sweep of
    the factor on the same grid chose 3L/2; its table is in the hybrid
    module.

    The answer is exact, so every platform builds the same design:
    ((N - D)/N)^b is carried as a floor and a ceiling in fixed point, a
    few small-integer steps per test whatever d is, and only a b whose
    bounds straddle 3L/(2(n - d)) is decided by the exact powers.  It needs
    n >= 1 and d >= 1, as construct_list_disjunct does.

    At d = 1 the width only says whether the design has tests: wherever it
    is at least 1, construct_list_disjunct builds the Sperner design
    instead, which is no wider here (6-11 tests on the acceptance grid
    against 5-12) and whose false-candidate lists are empty.
    """
    if n < 1 or d < 1:
        raise ParameterError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    if n <= 2 * d:
        return 0
    cap = d * max(1, (n // (2 * d)).bit_length() - 1)
    big, small = (d + 1) ** (d + 1), d**d
    bits = _WIDTH_GUARD_BITS + n.bit_length()
    one = 1 << bits
    ratio = ((big - small) << bits) // big  # floor of one * (N - D)/N
    lo = hi = one  # lo <= one * ((N - D)/N)^b <= hi
    for b in count(1):
        lo = (lo * ratio) >> bits
        hi = -((-hi * (ratio + 1)) >> bits)
        if 2 * (n - d) * hi <= 3 * cap * one:
            return b
        if 2 * (n - d) * lo <= 3 * cap * one and 2 * (n - d) * (big - small) ** b <= 3 * cap * big**b:
            return b


def construct_list_disjunct(n: int, d: int, seed: int) -> ListDesign:
    """Random Bernoulli(1/(d+1)) design with list_design_width(n, d) tests,
    the fewest (at least one where n > 2d) that keep a weight-d support's
    expected list of false candidates at most 3L/2 long, with
    L = d * max(1, floor(log2(n / 2d))): the length a sweep over the
    acceptance grid found to cost hybrid the fewest queries once its
    phase 2 finishes each one-coefficient leaf in one round, in fewer
    rounds than L (see list_design_width).  Each column is
    one bernoulli_mask draw from one SplitMix64(seed) stream, and the
    design keeps the seed, so at d >= 2 a design is a prefix of any wider
    one drawn from the same seed.  Where n <= 2d the design has no tests,
    so its one candidate set is all n coordinates.

    At d = 1, where n > 2, the design is construct_disjunct(n, 1)'s
    Sperner columns, with the seed kept: a 1-disjunct matrix is a list
    design whose false-candidate lists are empty, and it is no wider than
    the Bernoulli design here (6/5, 7/6, 8/8, 10/10 and 11/12 tests,
    Sperner / Bernoulli, at n = 16-256, 15/20 at n = 4,096).  Each leaf is
    then one coordinate under a 1-outcome, or the constant term's empty
    set, and hybrid runs pasmt's level loop with no phase-2 query.  At
    d >= 2 the Reed-Solomon matrix is 2-7 times wider (12/6 at (16, 2),
    68/25 at (256, 4)), and switching to it wherever it fit within the
    probe's expected length cost more grid queries, so d = 1 alone
    switches."""
    width = list_design_width(n, d)
    if d == 1 and width:
        return ListDesign(n, construct_disjunct(n, 1).columns, seed)
    rng = SplitMix64(seed)
    columns = [BitVector(n, bernoulli_mask(rng, n, d + 1)) for _ in range(width)]
    return ListDesign(n, columns, seed)


def list_decode(H: TestMatrix, label: Label) -> tuple[int, ...]:
    """Candidate coordinates (1-based, ascending) for a full syndrome.

    The candidates are the coordinates outside every test the label
    records a 0 at, read off the label's query vector in O(b) big-integer
    operations.  Sound by construction: every support consistent with the
    label is a subset of the returned set.  For a list design the size is
    only probabilistically small.
    """
    return build_query_vector(H, label).coords()
