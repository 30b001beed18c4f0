"""Seedable 64-bit pseudorandom generator and unbiased sampling helpers.

The generator is splitmix64 (Steele, Lea, and Flood's mixing constants), a
well-known fixed-increment mixer.  It is tiny, has a documented algorithm
identifier, and makes every sampled artifact reproducible from a single
64-bit seed.  Bounded draws use rejection from as many whole 64-bit words
as the bound needs, so they are exactly uniform for any bound.  A uniform
c-subset is the unranking of a uniform rank below C(n, c): unrank_subset
maps a rank to the rank-th c-subset in lexicographic order, guessing each
coordinate from a closed-form estimate of the binomials and settling it
with exact ones.
Bernoulli(1/base) masks read one coordinate from each base-`base` digit of
a bounded draw, so one 64-bit word serves as many coordinates as it has
whole digits; that word width is cached per base.  A mask's whole words
are drawn together by a lane-parallel splitmix64 kernel that runs the
generator over many words in a few big-integer operations, keeps the
words rejection keeps and leaves the state where as many rng.below calls
leave it; the last, partial word is one rng.below call.  The digits are
read c at a time, by one divmod through a cached digit table whose entry
v spells which of v's c digits are 0; c is the largest exponent that
keeps the table at or below 1,024 entries.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from math import ceil, comb, exp, lgamma, log
from struct import Struct

from .core import BitVector
from .errors import ParameterError

PRNG_ID = "splitmix64"

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
MAX_RANK = 1 << 64
# digit tables stay at or below this many entries
_TABLE_SIZE = 1024
# _below_many's kernel: words per pass, each in a 128-bit lane of one int;
# lane i of _STEPS is (i + 1) * _GOLDEN mod 2^64, and _LANE reads a lane's
# low 64 bits
_LANES = 256
_ONES = sum(1 << 128 * i for i in range(_LANES))
_WORDS = _ONES * _MASK64
_STEPS = sum(((i + 1) * _GOLDEN & _MASK64) << 128 * i for i in range(_LANES))
_LANE = Struct("<Q8x")


class SplitMix64:
    """splitmix64 stream seeded with one 64-bit integer."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Exactly uniform integer in [0, bound), for any bound >= 1, by
        rejection from the fewest whole 64-bit words whose range reaches it."""
        if not 1 <= bound <= MAX_RANK:
            if bound < 1:
                raise ParameterError(f"bound must be >= 1, got {bound}")
            span = 1 << 64 * -(-(bound - 1).bit_length() // 64)
            limit = span - span % bound
            while True:
                # the first word drawn is the most significant
                u = self.below(span >> 64) << 64 | self.next64()
                if u < limit:
                    return u % bound
        limit = MAX_RANK - MAX_RANK % bound
        while True:
            u = self.next64()
            if u < limit:
                return u % bound

    def uniform(self, lo: float, hi: float) -> float:
        """Uniform float in [lo, hi) with 53 random mantissa bits."""
        return lo + (hi - lo) * ((self.next64() >> 11) * 2.0**-53)


def _smallest_top(target: int, r: int, hi: int) -> tuple[int, int]:
    """The smallest y in [r, hi] with C(y, r) >= target, and C(y, r), for a
    target in [1, C(hi, r)].

    C(y, r) is at most, and about, (y - (r-1)/2)^r / r! (AM-GM), so the
    guess below is the answer or one short of it unless r is a large share
    of y; exact binomials settle it, by bisection over what is left when it
    misses by more than one.  math.log takes ints of any size, so no
    binomial is turned into a float.
    """
    guess = exp((log(target) + lgamma(r + 1)) / r) + (r - 1) / 2
    y = min(max(ceil(guess), r), hi)
    lo, value = r, comb(y, r)
    if value >= target:
        if comb(y - 1, r) < target:
            return y, value
        hi = y - 1
    else:
        value = comb(y + 1, r)
        if value >= target:
            return y + 1, value
        lo = y + 2
    while lo < hi:
        mid = (lo + hi) // 2
        if comb(mid, r) >= target:
            hi = mid
        else:
            lo = mid + 1
    return lo, comb(lo, r)


def unrank_subset(n: int, c: int, rank: int) -> tuple[int, ...]:
    """The rank-th c-subset of {1..n} in lexicographic order, 0-based rank.

    Each coordinate but the last is found by _smallest_top, and the last is
    read off the rank, so the cost is a few binomials per coordinate rather
    than a walk over all n coordinates.
    """
    total = comb(n, c)
    if not 0 <= rank < total:
        raise ParameterError(f"rank {rank} out of range for C({n},{c})={total}")
    coords = []
    a = 1
    top = total  # C(n-a+1, remaining): the subsets of {a..n} still open
    for remaining in range(c, 1, -1):
        # C(y, remaining) of them start at n-y+1 or later; the next
        # coordinate is the largest x = n-y+1 with at most rank of them
        # starting below it
        y, tail = _smallest_top(top - rank, remaining, n - a + 1)
        rank -= top - tail
        coords.append(n - y + 1)
        a = n - y + 2
        top = tail * remaining // y  # C(y-1, remaining-1) start at n-y+1
    if c:
        coords.append(a + rank)
    return tuple(coords)


def random_subset(rng: SplitMix64, n: int, c: int) -> tuple[int, ...]:
    """Uniform c-subset of {1..n} as ascending 1-based coordinates: the
    unranking of one rng.below(C(n, c)) draw."""
    if not 0 <= c <= n:
        raise ParameterError(f"subset size {c} out of range 0..{n}")
    return unrank_subset(n, c, rng.below(comb(n, c)))


@lru_cache(maxsize=64)
def _zero_digits(base: int) -> tuple[int, tuple[str, ...] | None]:
    """The digit table of a base: the largest c with base**c at most
    _TABLE_SIZE, and the table whose entry v spells v's c base-`base`
    digits, least significant first, as "1" where a digit is 0 and "0"
    elsewhere.  A base above _TABLE_SIZE gets c = 1 and no table."""
    if base > _TABLE_SIZE:
        return 1, None
    c, table = 1, ["1"] + ["0"] * (base - 1)
    while len(table) * base <= _TABLE_SIZE:
        # entry t * base + digit: digit first, then t's digits
        table = [("0" if digit else "1") + t for t in table for digit in range(base)]
        c += 1
    return c, tuple(table)


@lru_cache(maxsize=64)
def _word_digits(base: int) -> tuple[int, int]:
    """The digits one draw reads in a base: the largest k with base**k at
    most 2^64 (1 for a base past 2^64), and base**k."""
    k = 1
    while base ** (k + 1) <= MAX_RANK:
        k += 1
    return k, base**k


def _below_many(rng: SplitMix64, bound: int, count: int) -> list[int]:
    """count successive rng.below(bound) draws: the same words drawn, the
    same rejected, and rng.state left where those calls leave it.

    A bound above 2^64 takes rng.below's several-word path.  Otherwise the
    words are drawn in passes of at most _LANES words by a lane-parallel
    splitmix64 kernel: lane i of one int holds the state after i + 1 steps,
    each mixing step acts on every lane at once (a 64-bit value times a
    64-bit constant fits its 128-bit lane), and one lane-wise subtraction
    sets bit 64 of a lane exactly when its word is under the rejection
    limit.  Those bits, read as one byte per lane, tell itertools.compress
    which words to keep.  A pass draws the words its missing draws are
    expected to need and two more; when that is more than enough it stops
    at the last draw, so the state never moves past a word that the
    rng.below calls would not consume.
    """
    if bound > MAX_RANK:
        return [rng.below(bound) for _ in range(count)]
    limit = MAX_RANK - MAX_RANK % bound
    state = rng.state
    out: list[int] = []
    while len(out) < count:
        need = count - len(out)
        lanes = min(need * MAX_RANK // limit + 2, _LANES)
        low = (1 << 128 * lanes) - 1
        ones, words = _ONES & low, _WORDS & low
        z = (state * ones + (_STEPS & low)) & words
        z = (z ^ z >> 30) & words
        z = z * _MIX1 & words
        z = (z ^ z >> 27) & words
        z = z * _MIX2 & words
        z = (z ^ z >> 31) & words
        # lane value 2^64 - 1 + limit - word, at least 2^64 exactly when
        # word < limit
        size = 16 * lanes
        kept = (words + limit * ones - z).to_bytes(size, "little")[8::16]
        if kept.count(1) >= need:
            # end the pass at the need-th kept word: each step moves the
            # end on by the draws still missing, so it never passes it
            lanes = need
            while kept.count(1, 0, lanes) < need:
                lanes += need - kept.count(1, 0, lanes)
            kept = kept[:lanes]
        lane_words = _LANE.iter_unpack(z.to_bytes(size, "little"))
        out += [u % bound for (u,) in compress(lane_words, kept)]
        state = (state + lanes * _GOLDEN) & _MASK64
    rng.state = state
    return out


def _zero_bits(words: list[int], digits: int, base: int) -> str:
    """The zero flags of the low `digits` base-`base` digits of each word,
    word by word and least significant digit first: "1" where a digit is 0.

    One pass over the words per c digits, through the digit table."""
    c, table = _zero_digits(base)
    unit = base**c
    pieces = []
    for _ in range(digits // c):
        if table is None:
            pieces.append(["0" if u % unit else "1" for u in words])
        else:
            pieces.append([table[u % unit] for u in words])
        words = [u // unit for u in words]
    if digits % c:
        # the words are below base**(digits % c) by now; their table
        # entries end in flags for zero digits past the last
        pieces.append([table[u][: digits % c] for u in words])
    return "".join(map("".join, zip(*pieces)))


def bernoulli_mask(rng: SplitMix64, n: int, base: int) -> int:
    """n-bit mask whose bits are independent Bernoulli(1/base).

    Coordinates are drawn k at a time from one rng.below(base**r) draw,
    where k, cached per base, is the largest exponent with base**k <= 2^64
    and r is k or the number of coordinates left, whichever is smaller.
    The n // k whole draws come from one _below_many call, and a last,
    partial draw from rng.below, so a column shorter than k coordinates
    makes no kernel call and no pass over whole words.  The j-th least significant base-`base` digit of
    a draw decides bit j of its batch: the bit is set exactly when its
    digit is 0.  The batches are spelled out as one string of flags, so the
    mask is built once.
    """
    if n < 0 or base < 2:
        raise ParameterError(f"need n >= 0 and base >= 2, got n={n}, base={base}")
    k, unit = _word_digits(base)
    full, r = divmod(n, k)
    flags = _zero_bits(_below_many(rng, unit, full), k, base) if full else ""
    if r:
        flags += _zero_bits([rng.below(base**r)], r, base)
    return BitVector.from01(flags).mask
