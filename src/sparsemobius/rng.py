"""Seedable 64-bit pseudorandom generator and unbiased sampling helpers.

The generator is splitmix64 (Steele, Lea, and Flood's mixing constants), a
well-known fixed-increment mixer.  It is tiny, has a documented algorithm
identifier, and makes every sampled artifact reproducible from a single
64-bit seed.  Bounded draws use rejection from as many whole 64-bit words
as the bound needs, so they are exactly uniform for any bound.  A uniform
c-subset is the unranking of a uniform rank below C(n, c): unrank_subset
maps a rank to the rank-th c-subset in lexicographic order.
Bernoulli(1/base) masks read one coordinate from each base-`base` digit of
a bounded draw, so one 64-bit word serves as many coordinates as it has
whole digits.
"""

from __future__ import annotations

from math import comb

from .errors import ParameterError

PRNG_ID = "splitmix64"

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
MAX_RANK = 1 << 64


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


def unrank_subset(n: int, c: int, rank: int) -> tuple[int, ...]:
    """The rank-th c-subset of {1..n} in lexicographic order, 0-based rank.

    Each coordinate but the last is found by bisection, and the last is
    read off the rank, so the cost is O(c log n) binomials rather than a
    walk over all n coordinates.
    """
    total = comb(n, c)
    if not 0 <= rank < total:
        raise ParameterError(f"rank {rank} out of range for C({n},{c})={total}")
    coords = []
    a = 1
    for remaining in range(c, 1, -1):
        # C(n-a+1, remaining) - C(n-x+1, remaining) subsets of {a..n}
        # start below x; the next coordinate is the largest x with at most
        # rank of them
        top = comb(n - a + 1, remaining)
        lo, hi = a, n - remaining + 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if top - comb(n - mid + 1, remaining) <= rank:
                lo = mid
            else:
                hi = mid - 1
        rank -= top - comb(n - lo + 1, remaining)
        coords.append(lo)
        a = lo + 1
    if c:
        coords.append(a + rank)
    return tuple(coords)


def random_subset(rng: SplitMix64, n: int, c: int) -> tuple[int, ...]:
    """Uniform c-subset of {1..n} as ascending 1-based coordinates: the
    unranking of one rng.below(C(n, c)) draw."""
    if not 0 <= c <= n:
        raise ParameterError(f"subset size {c} out of range 0..{n}")
    return unrank_subset(n, c, rng.below(comb(n, c)))


def bernoulli_mask(rng: SplitMix64, n: int, base: int) -> int:
    """n-bit mask whose bits are independent Bernoulli(1/base).

    Coordinates are drawn k at a time from one rng.below(base**r) call,
    where k is the largest exponent with base**k <= 2^64 and r is k or the
    number of coordinates left, whichever is smaller.  The j-th least
    significant base-`base` digit of the draw decides bit j of the batch:
    the bit is set exactly when its digit is 0.
    """
    if n < 0 or base < 2:
        raise ParameterError(f"need n >= 0 and base >= 2, got n={n}, base={base}")
    k = 1
    while base ** (k + 1) <= MAX_RANK:
        k += 1
    mask = 0
    for start in range(0, n, k):
        r = min(k, n - start)
        u = rng.below(base**r)
        batch = 0
        for j in range(r):
            if not u % base:
                batch |= 1 << j
            u //= base
        mask |= batch << start
    return mask
