"""Bit vectors, outcome labels, and test matrices over the Boolean semiring.

These three immutable value types are the shared currency of every
reconstruction algorithm in the package.  A vector of length n is stored as a
Python integer with coordinate i kept in bit i-1, so the textual form reads
coordinate 1 first: "0011" with n = 4 has coordinates 3 and 4 set.  Outcome
labels use the same layout with the first recorded outcome in bit 0.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import CapacityError, DimensionError

__all__ = [
    "MAX_LABEL_LENGTH",
    "BitVector",
    "Label",
    "TestMatrix",
    "boolean_leq",
    "lex_compare",
    "semiring_apply",
    "build_query_vector",
]

MAX_LABEL_LENGTH = 1 << 16


class BitVector:
    """Immutable binary vector with coordinates numbered 1..n.

    Equality and hashing are by value, so vectors can key dictionaries.
    Length 0 is allowed so that syndromes of empty matrix prefixes are
    representable.
    """

    __slots__ = ("n", "mask")

    def __init__(self, n: int, mask: int = 0):
        if n < 0:
            raise DimensionError(f"vector length must be nonnegative, got {n}")
        if not 0 <= mask < (1 << n):
            raise DimensionError(f"mask {mask:#x} does not fit in {n} bits")
        self.n = n
        self.mask = mask

    @classmethod
    def zeros(cls, n: int) -> "BitVector":
        return cls(n, 0)

    @classmethod
    def ones(cls, n: int) -> "BitVector":
        return cls(n, (1 << n) - 1)

    @classmethod
    def from01(cls, text: str) -> "BitVector":
        """Parse the textual form, coordinate 1 first."""
        mask = 0
        for i, ch in enumerate(text):
            if ch == "1":
                mask |= 1 << i
            elif ch != "0":
                raise DimensionError(f"invalid bit {ch!r} in {text!r}")
        return cls(len(text), mask)

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
        return "".join("1" if (self.mask >> i) & 1 else "0" for i in range(self.n))

    def bit(self, coord: int) -> int:
        """Value at 1-based coordinate."""
        if not 1 <= coord <= self.n:
            raise DimensionError(f"coordinate {coord} out of range 1..{self.n}")
        return (self.mask >> (coord - 1)) & 1

    def coords(self) -> tuple[int, ...]:
        """1-based coordinates that are set, ascending."""
        bits = format(self.mask, "b")[::-1]  # coordinate 1 first
        out = []
        i = bits.find("1")
        while i >= 0:
            out.append(i + 1)
            i = bits.find("1", i + 1)
        return tuple(out)

    def weight(self) -> int:
        return self.mask.bit_count()

    def complement(self) -> "BitVector":
        return BitVector(self.n, self.mask ^ ((1 << self.n) - 1))

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


def boolean_leq(a: BitVector, b: BitVector) -> bool:
    """Componentwise order: every set coordinate of a is set in b."""
    if a.n != b.n:
        raise DimensionError(f"length mismatch: {a.n} vs {b.n}")
    return a.mask & ~b.mask == 0


class Label:
    """Immutable outcome string of a test sequence, one bit per test.

    Position i (0-based) holds the outcome of test i+1.  Labels grow by
    append and are capped at MAX_LABEL_LENGTH bits.  The depth-first search
    visits buckets in lexicographic label order, a proper prefix sorting
    before every extension; ``a < b`` applies that order.
    """

    __slots__ = ("length", "mask")

    def __init__(self, length: int, mask: int = 0):
        if length < 0:
            raise DimensionError(f"label length must be nonnegative, got {length}")
        if length > MAX_LABEL_LENGTH:
            raise CapacityError(f"label length {length} exceeds {MAX_LABEL_LENGTH}")
        if not 0 <= mask < (1 << length if length else 1):
            raise DimensionError(f"mask {mask:#x} does not fit in {length} bits")
        self.length = length
        self.mask = mask

    @classmethod
    def empty(cls) -> "Label":
        return cls(0, 0)

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "Label":
        mask = 0
        length = 0
        for b in bits:
            if b not in (0, 1):
                raise DimensionError(f"label bits must be 0 or 1, got {b!r}")
            mask |= b << length
            length += 1
        return cls(length, mask)

    @classmethod
    def from01(cls, text: str) -> "Label":
        return cls.from_bits(1 if ch == "1" else 0 if ch == "0" else -1 for ch in text)

    def to01(self) -> str:
        return "".join(
            "1" if (self.mask >> i) & 1 else "0" for i in range(self.length)
        )

    def bit(self, i: int) -> int:
        """Outcome at 0-based position i."""
        if not 0 <= i < self.length:
            raise DimensionError(f"position {i} out of range 0..{self.length - 1}")
        return (self.mask >> i) & 1

    def bits(self) -> Iterator[int]:
        return ((self.mask >> i) & 1 for i in range(self.length))

    def append(self, bit: int) -> "Label":
        if bit not in (0, 1):
            raise DimensionError(f"label bits must be 0 or 1, got {bit!r}")
        return Label(self.length + 1, self.mask | (bit << self.length))

    def concat(self, other: "Label") -> "Label":
        return Label(self.length + other.length, self.mask | (other.mask << self.length))

    def is_prefix_of(self, other: "Label") -> bool:
        if self.length > other.length:
            return False
        return other.mask & ((1 << self.length) - 1) == self.mask

    def leq(self, other: "Label") -> bool:
        """Componentwise order on equal-length labels."""
        if self.length != other.length:
            raise DimensionError(
                f"length mismatch: {self.length} vs {other.length}"
            )
        return self.mask & ~other.mask == 0

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Label)
            and self.length == other.length
            and self.mask == other.mask
        )

    def __hash__(self) -> int:
        return hash((self.length, self.mask))

    def __lt__(self, other: "Label") -> bool:
        return lex_compare(self, other) < 0

    def __le__(self, other: "Label") -> bool:
        return lex_compare(self, other) <= 0

    def __repr__(self) -> str:
        return f"Label({self.to01()!r})"


def lex_compare(a: Label, b: Label) -> int:
    """Return -1, 0, or 1 ordering labels lexicographically.

    A proper prefix sorts before every extension; otherwise the first
    position where the labels differ decides.
    """
    m = min(a.length, b.length)
    diff = (a.mask ^ b.mask) & ((1 << m) - 1)
    if diff:
        low = diff & -diff
        return -1 if a.mask & low == 0 else 1
    if a.length == b.length:
        return 0
    return -1 if a.length < b.length else 1


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

    def column(self, j: int) -> BitVector:
        """Column by 0-based index."""
        if not 0 <= j < len(self.columns):
            raise DimensionError(f"column {j} out of range 0..{len(self.columns) - 1}")
        return self.columns[j]

    @property
    def row_masks(self) -> tuple[int, ...]:
        if self._rows is None:
            rows = [0] * self.n
            for t, col in enumerate(self.columns):
                mask = col.mask
                bit = 1 << t
                i = 0
                while mask:
                    if mask & 1:
                        rows[i] |= bit
                    mask >>= 1
                    i += 1
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


def semiring_apply(H: TestMatrix, v: BitVector, transpose: bool = False) -> BitVector:
    """Multiply over the (OR, AND) semiring.

    Forward: v selects columns, the result of length n is their union.
    Transpose: the result of length b flags each column intersecting v.
    """
    if not transpose:
        if v.n != H.b:
            raise DimensionError(f"vector length {v.n} != column count {H.b}")
        out = 0
        sel = v.mask
        for col in H.columns:
            if sel & 1:
                out |= col.mask
            sel >>= 1
        return BitVector(H.n, out)
    if v.n != H.n:
        raise DimensionError(f"vector length {v.n} != row count {H.n}")
    out = 0
    for t, col in enumerate(H.columns):
        if col.mask & v.mask:
            out |= 1 << t
    return BitVector(H.b, out)


def build_query_vector(H: TestMatrix, label: Label) -> BitVector:
    """Evaluation point whose downward closure is cut out by an outcome label.

    Given a width-t matrix and a length-t label, returns
    x = NOT(H applied to NOT label), so that k <= x holds exactly when the
    syndrome of k is componentwise below the label.  A width-0 matrix gives
    the all-ones point.
    """
    if label.length != H.b:
        raise DimensionError(
            f"label length {label.length} != column count {H.b}"
        )
    union = 0
    for t, col in enumerate(H.columns):
        if not (label.mask >> t) & 1:
            union |= col.mask
    return BitVector(H.n, ((1 << H.n) - 1) & ~union)
