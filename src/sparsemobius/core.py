"""Bit vectors and test matrices over the Boolean semiring.

These two immutable value types are the shared currency of every
reconstruction algorithm in the package.  A vector of length n is stored as a
Python integer with coordinate i kept in bit i-1, so the textual form reads
coordinate 1 first: "0011" with n = 4 has coordinates 3 and 4 set.  An
outcome label is a bit vector too, named Label where the code means one:
a test matrix maps a support in {0,1}^n to the b outcomes of its tests in
{0,1}^b, with the first outcome in bit 0.

A test matrix has one encode/decode pair, both here: syndrome encodes a
support into its outcome label, and build_query_vector decodes a label into
the query point whose downward closure it cuts out.  No runner calls
either: the level loop carries each bucket's decoded point, its candidate
set, and pasmt hands that set to grouptest.decode_disjunct with the leaf's
label, so the label is only checked, not decoded.  The level loop and the
depth-first engine build their query points inline through _new, without
BitVector's range check: each is a candidate set ANDed with another mask.
log_query writes the one transcript line format every runner emits.
"""

from __future__ import annotations

from typing import Iterable, TextIO

from .errors import DimensionError

__all__ = [
    "BitVector",
    "Label",
    "TestMatrix",
    "log_query",
    "syndrome",
    "build_query_vector",
]

class BitVector:
    """Immutable binary vector with coordinates numbered 1..n.

    It serves both ends of a test matrix: supports and query points of
    length n, and outcome labels (the alias Label) of length b.  Equality
    and hashing are by value, so vectors can key dictionaries.  Length 0 is
    allowed so that syndromes of empty matrix prefixes are representable.
    """

    __slots__ = ("n", "mask")

    def __init__(self, n: int, mask: int = 0):
        if n < 0:
            raise DimensionError(f"vector length must be nonnegative, got {n}")
        if mask < 0 or mask.bit_length() > n:
            raise DimensionError(f"mask {mask:#x} does not fit in {n} bits")
        self.n = n
        self.mask = mask

    @classmethod
    def ones(cls, n: int) -> "BitVector":
        return cls(n, (1 << n) - 1)

    @classmethod
    def from01(cls, text: str) -> "BitVector":
        """Parse the textual form, coordinate 1 first."""
        # two counts scan a long string several times faster than lstrip
        if text.count("0") + text.count("1") != len(text):
            bad = text.lstrip("01")  # starts at the first character not 0 or 1
            raise DimensionError(f"invalid bit {bad[0]!r} in {text!r}")
        return cls(len(text), int(text[::-1] or "0", 2))

    @classmethod
    def from_coords(cls, n: int, coords: Iterable[int]) -> "BitVector":
        """Build a vector of length n from 1-based coordinate numbers."""
        mask = 0
        for c in coords:
            if not 1 <= c <= n:
                raise DimensionError(f"coordinate {c} out of range 1..{n}")
            mask |= 1 << (c - 1)
        return cls(n, mask)

    def to01(self) -> str:
        """The textual form, coordinate 1 first."""
        return format(self.mask, f"0{self.n}b")[::-1] if self.n else ""

    def coords(self) -> tuple[int, ...]:
        """1-based coordinates that are set, ascending."""
        bits = self.to01()
        out = []
        i = bits.find("1")
        while i >= 0:
            out.append(i + 1)
            i = bits.find("1", i + 1)
        return tuple(out)

    def weight(self) -> int:
        return self.mask.bit_count()

    def __len__(self) -> int:
        return self.n

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BitVector)
            and self.n == other.n
            and self.mask == other.mask
        )

    def __hash__(self) -> int:
        return hash((self.n, self.mask))

    def __repr__(self) -> str:
        return f"BitVector({self.to01()!r})"


# an outcome string: position i (0-based) holds the outcome of test i+1
Label = BitVector

_new = object.__new__


def log_query(transcript: TextIO | None, label: Label, x: BitVector, value: float) -> None:
    """Write one tab-separated transcript line (bucket label, query point,
    value); a None transcript writes nothing.

    The value column holds one of two things.  The root query, pasmt's
    level loop and hybrid's phase 1 log the oracle's raw value f(x).  The
    depth-first engine (fasmt and hybrid's phase 2) logs the bucket's
    residual 0-child sum: f(x) minus the coefficients already found below
    x.  A search's line holds the 0-child sum split_bin returns; a probe's
    holds the value the engine settled, f(x) minus the coefficients of the
    buckets below its own.
    """
    if transcript is not None:
        transcript.write(f"{label.to01()}\t{x.to01()}\t{value!r}\n")


class TestMatrix:
    """Immutable n x b binary matrix stored as b column vectors of length n.

    Column j is the j-th test; row i records which tests touch coordinate i.
    Row masks (integers with bit t set when column t has coordinate i+1 set)
    are computed lazily and cached.
    """

    __slots__ = ("n", "columns", "_rows")
    __test__ = False  # not a pytest case, despite the name

    def __init__(self, n: int, columns: Iterable[BitVector]):
        if n < 1:
            raise DimensionError(f"matrix must have at least one row, got n={n}")
        cols = tuple(columns)
        for j, col in enumerate(cols):
            if col.n != n:
                raise DimensionError(
                    f"column {j + 1} has length {col.n}, expected {n}"
                )
        self.n = n
        self.columns = cols
        self._rows: tuple[int, ...] | None = None

    @property
    def b(self) -> int:
        return len(self.columns)

    @property
    def row_masks(self) -> tuple[int, ...]:
        if self._rows is None:
            rows = [0] * self.n
            for t, col in enumerate(self.columns):
                bit = 1 << t
                for i in col.coords():
                    rows[i - 1] |= bit
            self._rows = tuple(rows)
        return self._rows

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TestMatrix)
            and self.n == other.n
            and self.columns == other.columns
        )

    def __hash__(self) -> int:
        return hash((self.n, self.columns))

    def __repr__(self) -> str:
        return f"TestMatrix(n={self.n}, b={self.b})"


def syndrome(H: TestMatrix, k: BitVector) -> Label:
    """Outcome label of support k against every test of H: bit t is set
    exactly when column t intersects k."""
    if k.n != H.n:
        raise DimensionError(f"vector length {k.n} != row count {H.n}")
    mask = 0
    for t, col in enumerate(H.columns):
        if col.mask & k.mask:
            mask |= 1 << t
    return BitVector(H.b, mask)


def build_query_vector(H: TestMatrix, label: Label) -> BitVector:
    """Evaluation point whose downward closure is cut out by an outcome label.

    Given a width-t matrix and a length-t label, returns
    x = NOT(union of the columns the label records a 0 at), so that k <= x
    holds exactly when syndrome(H, k) is componentwise below the label.  A
    width-0 matrix gives the all-ones point.  The label's outcomes are
    walked as text, test 1 first, and only the columns at its 0s are ORed.
    """
    if label.n != H.b:
        raise DimensionError(f"label length {label.n} != column count {H.b}")
    union = 0
    for col, bit in zip(H.columns, label.to01()):
        if bit == "0":
            union |= col.mask
    # the union lies inside the n coordinates, so XOR complements it
    return BitVector(H.n, ((1 << H.n) - 1) ^ union)
