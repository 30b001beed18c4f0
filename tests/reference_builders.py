"""The set-up builders as they were before digit tables, Horner passes,
first guesses and fixed-point bounds, kept as the references the current
builders are tested against.

bernoulli_mask decodes one base-`base` digit per Python step, _rs_concat
evaluates each item's codeword one digit at a time at every point,
unrank_subset finds each coordinate by bisection over binomials, and
list_design_width multiplies out the exact powers one test at a time.
list_design_stream draws a list design's columns one at a time, to any
width.
"""

from __future__ import annotations

from math import comb

from sparsemobius.core import BitVector, TestMatrix
from sparsemobius.errors import ParameterError
from sparsemobius.rng import MAX_RANK, SplitMix64


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


def _rs_concat(n: int, q: int, m: int, points: int) -> TestMatrix:
    """Reed-Solomon code over GF(q) of message length m at the points
    alpha = 0..points-1, concatenated with the identity: test (position,
    symbol) contains item j iff j's codeword carries that symbol at that
    position.  Zero and duplicate test columns carry no information and
    are dropped."""
    cols = [0] * (q * points)
    for j in range(n):
        digits = []
        v = j
        for _ in range(m):
            digits.append(v % q)
            v //= q
        for alpha in range(points):
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


def list_design_width(n: int, d: int) -> int:
    """0 where n <= 2d, else the smallest b >= 1 with
    2 * (n - d) * (N - D)^b <= 3 * L * N^b, where N = (d+1)^(d+1),
    D = d^d and L = d * max(1, floor(log2(n / 2d))), by exact powers: the
    operands grow by about (d+1) log2(d+1) bits per test.
    floor(log2(n / 2d)) is the largest k with 2d * 2^k <= n."""
    if n <= 2 * d:
        return 0
    k = 0
    while 2 * d << (k + 1) <= n:
        k += 1
    cap = d * max(1, k)
    big, small = (d + 1) ** (d + 1), d**d
    b = 1
    miss, total = big - small, big
    while 2 * (n - d) * miss > 3 * cap * total:
        b += 1
        miss *= big - small
        total *= big
    return b


def list_design_stream(n: int, d: int, seed: int, width: int) -> list[int]:
    """The first width column masks of the SplitMix64(seed) stream a list
    design over n coordinates at degree d draws, one bernoulli_mask each."""
    rng = SplitMix64(seed)
    return [bernoulli_mask(rng, n, d + 1) for _ in range(width)]
