"""The set-up builders as they were before digit tables, Horner passes,
first guesses and fixed-point bounds, kept as the references the current
builders are tested against.

bernoulli_mask decodes one base-`base` digit per Python step, _rs_concat
evaluates each item's codeword one digit at a time at every point, in
GF(p^k) arithmetic of its own (polynomials over GF(p) multiplied out and
reduced once per product and added digit by digit once per sum, modulo
the polynomial gf_modulus finds by trial division), unrank_subset finds
each coordinate by bisection over binomials, and list_design_width
multiplies out the exact powers one test at a time.  list_design_stream
draws a list design's columns one at a time, to any width.
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


def _digits(v: int, base: int, count: int) -> list[int]:
    """v's count lowest base-`base` digits, least significant first."""
    out = []
    for _ in range(count):
        out.append(v % base)
        v //= base
    return out


def _undigits(digits: list[int], base: int) -> int:
    """The integer whose base-`base` digits, least significant first, are
    digits."""
    return sum(c * base**i for i, c in enumerate(digits))


def _poly_mod(a: list[int], f: list[int], p: int) -> list[int]:
    """a modulo the monic f over GF(p), by long division; coefficient lists
    from x^0 up, and the remainder padded to deg f coefficients."""
    a = [c % p for c in a] + [0] * (len(f) - 1)
    k = len(f) - 1
    for top in range(len(a) - 1, k - 1, -1):
        c = a[top]
        if c:
            for i in range(k + 1):
                a[top - k + i] = (a[top - k + i] - c * f[i]) % p
    return a[:k]


def _poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    c = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            c[i + j] = (c[i + j] + x * y) % p
    return c


def prime_power(q: int) -> tuple[int, int]:
    """(p, k) with q = p**k, by trial division; q must be a prime power."""
    p = 2
    while q % p:
        p += 1
    k = 0
    while q > 1:
        if q % p:
            raise ParameterError(f"{q * p**k} is not a prime power")
        q //= p
        k += 1
    return p, k


def gf_modulus(p: int, k: int) -> int:
    """The monic irreducible polynomial of degree k over GF(p) that comes
    first with coefficients compared from x^(k-1) down, as the integer whose
    i-th base-p digit is its coefficient of x^i.  Candidates are tried in
    that order, each by trial division by every monic polynomial of degree
    1..k/2."""
    for low in range(p**k):
        f = _digits(low, p, k) + [1]
        if not any(
            not any(_poly_mod(f, _digits(g, p, i) + [1], p))
            for i in range(1, k // 2 + 1)
            for g in range(p**i)
        ):
            return p**k + low
    raise AssertionError("every degree has an irreducible polynomial")


def _rs_concat(n: int, q: int, m: int, points: int) -> TestMatrix:
    """Reed-Solomon code over GF(q), q = p^k, of message length m at the
    points alpha = 0..min(points, q)-1, plus the point at infinity when
    points = q + 1, concatenated with the identity: test (position,
    symbol) contains item j iff j's codeword carries that symbol at that
    position.  Item j's codeword is the polynomial whose coefficient of
    x^i is j's i-th base-q digit; field elements are polynomials over
    GF(p) in base-p digits, each product digit * alpha^i multiplied out
    and reduced modulo gf_modulus, and each sum taken digit by digit mod
    p, the first time an item needs it, and the terms summed one item and
    one digit at a time; infinity carries
    the coefficient of x^(m-1).  Zero and duplicate test columns carry no
    information and are dropped."""
    p, k = prime_power(q)
    f = _digits(gf_modulus(p, k), p, k + 1)
    # powers[alpha][i] is alpha^i, i = 0..m-1
    powers = []
    for alpha in range(min(points, q)):
        row = [_digits(1, p, k)]
        for _ in range(m - 1):
            row.append(_poly_mod(_poly_mul(row[-1], _digits(alpha, p, k), p), f, p))
        powers.append(row)
    # terms[alpha][i][digit] is digit * alpha^i and sums[a * q + b] is
    # a + b, field elements as integers in base p; None until first needed
    terms = [[[None] * q for _ in range(m)] for _ in powers]
    sums: list[int | None] = [None] * (q * q)
    cols = [0] * (q * points)
    for j in range(n):
        digits = _digits(j, q, m)
        for alpha in range(points):
            if alpha == q:
                sym = digits[-1]
            else:
                sym = 0
                for i, digit in enumerate(digits):
                    term = terms[alpha][i][digit]
                    if term is None:
                        power = powers[alpha][i]
                        prod = _poly_mod(_poly_mul(_digits(digit, p, k), power, p), f, p)
                        term = terms[alpha][i][digit] = _undigits(prod, p)
                    total = sums[sym * q + term]
                    if total is None:
                        pairs = zip(_digits(sym, p, k), _digits(term, p, k))
                        total = sums[sym * q + term] = _undigits(
                            [(x + y) % p for x, y in pairs], p
                        )
                    sym = total
            cols[alpha * q + sym] |= 1 << j
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
