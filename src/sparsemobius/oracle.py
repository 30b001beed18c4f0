"""Sparse polynomials in the AND basis and the evaluation oracles over them.

A polynomial is a finite map from monomial supports (bit vectors) to nonzero
real coefficients; its value at a point x is the sum of coefficients whose
support is componentwise below x.  A hypergraph's edge-count function is
such a polynomial, one monomial per edge, so an edge list is read straight
into one.  Unweighted hypergraphs produce integer coefficients, and
evaluation keeps exact integers in that case, so reconstruction can run
with a zero tolerance.

Every reconstruction algorithm routes each evaluation through a
CountingOracle, the only mutable object on the query path.  It tallies
individual queries and declared batch boundaries (rounds).  An oracle must
offer eval(x); it may also offer batch_eval(xs) for the points of one
round, and the counting wrapper then hands it each batch whole.
SparsePolyOracle does, bit-slicing large batches, with values
bit-identical to eval's.
"""

from __future__ import annotations

import math
import os
import re
import sys
from itertools import compress
from typing import Mapping, Protocol, Sequence, TextIO

from .core import BitVector
from .errors import DimensionError, FormatError, ParameterError, ValidationError

__all__ = [
    "DEFAULT_TAU",
    "SparsePolynomial",
    "QueryOracle",
    "SparsePolyOracle",
    "CountingOracle",
    "read_polynomial",
    "write_polynomial",
    "read_hypergraph",
    "read_instance",
]

DEFAULT_TAU = 1e-9
# SparsePolyOracle slices a batch of B points when B*s >= _SLICE_FACTOR*(B + T + D)
_SLICE_FACTOR = 8


def check_tau(tau: float) -> None:
    """Raise ParameterError unless the zero tolerance tau is finite and
    nonnegative.  A NaN or infinite tau treats every sum as zero, and a
    negative one treats every sum as nonzero."""
    if not 0 <= tau < math.inf:
        raise ParameterError(f"tau must be finite and nonnegative, got {tau!r}")


class SparsePolynomial:
    """Finite coefficient map {support -> nonzero value} over {0,1}^n."""

    __slots__ = ("n", "entries", "degree_bound")

    def __init__(
        self,
        n: int,
        entries: Mapping[BitVector, float],
        degree_bound: int | None = None,
    ):
        if n < 1:
            raise DimensionError(f"dimension must be positive, got {n}")
        copied: dict[BitVector, float] = {}
        for k, v in entries.items():
            if k.n != n:
                raise DimensionError(
                    f"support {k.to01()!r} has length {k.n}, expected {n}"
                )
            if v == 0:
                raise ValidationError(f"zero coefficient at support {k.to01()!r}")
            if not -math.inf < v < math.inf:  # math.isfinite overflows on a big int
                raise ValidationError(f"non-finite coefficient at {k.to01()!r}")
            if degree_bound is not None and k.weight() > degree_bound:
                raise ValidationError(
                    f"support {k.to01()!r} has weight {k.weight()},"
                    f" above the degree bound {degree_bound}"
                )
            copied[k] = v
        self.n = n
        self.entries = copied
        self.degree_bound = degree_bound

    @property
    def sparsity(self) -> int:
        return len(self.entries)

    def close_to(self, other: "SparsePolynomial", tol: float = DEFAULT_TAU) -> bool:
        """Same dimension, same supports, values within tol."""
        if self.n != other.n or self.entries.keys() != other.entries.keys():
            return False
        return all(
            abs(v - other.entries[k]) <= tol for k, v in self.entries.items()
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SparsePolynomial)
            and self.n == other.n
            and self.entries == other.entries
        )

    def __repr__(self) -> str:
        return f"SparsePolynomial(n={self.n}, s={self.sparsity})"


class QueryOracle(Protocol):
    """Anything that can evaluate the hidden function at a point.

    An oracle may also offer batch_eval(xs): the values at the points of
    one adaptive round, one per point and in order.  CountingOracle calls
    it when the inner oracle has one, and eval per point when it has not.
    """

    n: int

    def eval(self, x: BitVector) -> float: ...


class SparsePolyOracle:
    """Evaluation oracle backed by an explicit coefficient map.

    batch_eval picks one of two ways to evaluate a batch of B points, from
    the batch size.  Both sum each point's coefficients in coefficient
    order, starting from int 0, as eval does, so every value is
    bit-identical to eval's, floats included.

    - The loop tests every (point, coefficient) pair: B*s Python steps.
    - Bit-slicing packs the points' bytes once and reads each byte that a
      support touches across all B points as one integer, byte j holding
      point j's byte.  A coefficient's hit set, the points whose x
      contains its support, is the AND of its coordinates' shifted
      slices, and its value is added to those points alone.  That is
      about B + T + D + s Python steps plus a few per hit, where T counts
      the bytes the supports touch and D is the sum of the support sizes.
      Its tables are built on the first batch that slices.

    A batch is sliced when B*s >= 8*(B + T + D), that is when B is at
    least _min_batch = ceil(8*(T + D) / (s - 8)); an oracle with s <= 8
    never slices.  The factor 8 comes from a sweep over n in {16, 256,
    4096}, s in {1, 8, 64, 490}, d in {1, 2, 5} and B in {1, 4, 16, 64,
    256}, and from the batches the runners send: with a factor of 4 to 6
    the rule also slices batches whose points hold most supports, where
    the steps per hit make slicing slower than the loop.
    """

    __slots__ = ("n", "_items", "_min_batch", "_tables")

    def __init__(self, poly: SparsePolynomial):
        self.n = poly.n
        self._items = [(k.mask, v) for k, v in poly.entries.items()]
        union = 0
        for mask, _ in self._items:
            union |= mask
        touched = sum(map(bool, union.to_bytes((self.n + 7) // 8, "little")))
        support = sum(mask.bit_count() for mask, _ in self._items)
        excess = len(self._items) - _SLICE_FACTOR
        self._min_batch = (
            -(-_SLICE_FACTOR * (touched + support) // excess) if excess > 0 else math.inf
        )
        self._tables: tuple | None = None

    def eval(self, x: BitVector) -> float:
        if x.n != self.n:
            raise DimensionError(f"point length {x.n}, expected {self.n}")
        xm = x.mask
        total = 0
        for mask, v in self._items:
            if mask & xm == mask:
                total += v
        return total

    def batch_eval(self, xs: Sequence[BitVector]) -> list[float]:
        """The values at the points of one batch, as eval gives them."""
        if len(xs) >= self._min_batch:
            return self._sliced(xs)
        n = self.n
        items = self._items
        values = []
        for x in xs:
            if x.n != n:
                raise DimensionError(f"point length {x.n}, expected {n}")
            xm = x.mask
            total = 0
            for mask, v in items:
                if mask & xm == mask:
                    total += v
            values.append(total)
        return values

    def _sliced(self, xs: Sequence[BitVector]) -> list[float]:
        n = self.n
        for x in xs:
            if x.n != n:
                raise DimensionError(f"point length {x.n}, expected {n}")
        if self._tables is None:
            # a slot per coordinate that some support holds; each
            # coefficient lists its support's slots
            slots: dict[int, int] = {}
            coefs = []
            for mask, v in self._items:
                coords = BitVector(n, mask).coords()
                coefs.append((tuple(slots.setdefault(c - 1, len(slots)) for c in coords), v))
            rows: dict[int, int] = {}
            places = [(rows.setdefault(i >> 3, len(rows)), i & 7) for i in slots]
            self._tables = (list(rows), places, coefs)
        byte_rows, places, coefs = self._tables
        nbytes = (n + 7) // 8
        size = len(xs)
        packed = b"".join([x.mask.to_bytes(nbytes, "little") for x in xs])
        rows = [int.from_bytes(packed[k::nbytes], "little") for k in byte_rows]
        # bit 8j of a slot's slice is set when point j holds its coordinate
        ones = int.from_bytes(b"\x01" * size, "little")
        sliced = [rows[r] >> shift & ones for r, shift in places]
        values = [0] * size
        points = range(size)
        for coef_slots, v in coefs:
            hit = ones
            for t in coef_slots:
                hit &= sliced[t]
            if hit & (hit - 1):
                for j in compress(points, hit.to_bytes(size, "little")):
                    values[j] += v
            elif hit:
                values[hit.bit_length() >> 3] += v
        return values


class CountingOracle:
    """Counting wrapper; the only mutable object on the query path.

    query_count is the number of evaluations since construction and
    round_count the number of declared batch boundaries.  A bare eval call
    is its own batch of one.  An empty batch increments nothing.  A batch
    goes to the inner oracle's batch_eval when it has one, and otherwise
    to its eval point by point; an answer of another length than the
    batch raises DimensionError.  A call is charged once the inner oracle
    has answered it, so a call that raises charges nothing.
    """

    __slots__ = ("inner", "query_count", "round_count", "_batch_eval")

    def __init__(self, inner: QueryOracle):
        self.inner = inner
        self.query_count = 0
        self.round_count = 0
        batch_eval = getattr(inner, "batch_eval", None)
        if batch_eval is None:
            inner_eval = inner.eval

            def batch_eval(xs: Sequence[BitVector]) -> list[float]:
                return [inner_eval(x) for x in xs]

        self._batch_eval = batch_eval

    @property
    def n(self) -> int:
        return self.inner.n

    def eval(self, x: BitVector) -> float:
        value = self.inner.eval(x)
        self.query_count += 1
        self.round_count += 1
        return value

    def batch_eval(self, xs: Sequence[BitVector]) -> list[float]:
        """Evaluate a batch issued in one adaptive round."""
        if not xs:
            return []
        values = self._batch_eval(xs)
        if len(values) != len(xs):
            raise DimensionError(f"batch of {len(xs)} points got {len(values)} values")
        self.query_count += len(xs)
        self.round_count += 1
        return values


# the numerals the file formats take: ASCII digits only, where int() and
# float() alone also take underscores, non-ASCII digits, inf and nan
_INTEGER = re.compile(r"[+-]?[0-9]+")
_DECIMAL = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")


def _integer(token: str, lineno: int) -> int | None:
    """The value of a plain ASCII integer numeral, else None.  A numeral
    longer than the interpreter's int-string digit limit raises FormatError
    at its line."""
    if not _INTEGER.fullmatch(token):
        return None
    try:
        return int(token)
    except ValueError:
        digits = len(token.lstrip("+-"))
        limit = sys.get_int_max_str_digits()
        raise FormatError(
            f"integer numeral of {digits} digits is past the {limit}-digit limit"
            " for integer-string conversion",
            lineno,
        ) from None


def _numeral(value: float, support: BitVector) -> str:
    """repr of a coefficient; an int longer than the interpreter's
    int-string digit limit raises ValidationError naming its support."""
    try:
        return repr(value)
    except ValueError:
        raise ValidationError(
            f"coefficient at support {support.to01()!r} is past the"
            f" {sys.get_int_max_str_digits()}-digit limit for integer-string conversion"
        ) from None


def _parse_value(token: str, lineno: int) -> float:
    """Plain ASCII numeral, kept as int when written as one (exact integer mode)."""
    value = _integer(token, lineno)
    if value is not None:
        return value
    if not _DECIMAL.fullmatch(token):
        raise FormatError(f"invalid numeric value {token!r}", lineno)
    value = float(token)
    if not math.isfinite(value):
        raise FormatError(f"non-finite value {token!r}", lineno)
    return value


def _read_lines(source: str | os.PathLike | TextIO) -> list[str]:
    """The lines of a text source; a file holding a non-ASCII byte raises
    FormatError at that byte's line."""
    if not isinstance(source, (str, os.PathLike)):
        return source.read().splitlines()
    with open(source, "rb") as handle:
        data = handle.read()
    try:
        return data.decode("ascii").splitlines()
    except UnicodeDecodeError as err:
        lineno = data.count(b"\n", 0, err.start) + 1
        raise FormatError(f"non-ASCII byte {data[err.start]:#04x}", lineno) from None


def _write_text(sink: str | os.PathLike | TextIO, text: str) -> None:
    if isinstance(sink, (str, os.PathLike)):
        with open(sink, "w", encoding="ascii") as handle:
            handle.write(text)
    else:
        sink.write(text)


def _parse_header(lines: list[str], what: str) -> tuple[int, int]:
    if not lines:
        raise FormatError(f"empty {what} file", 1)
    fields = [_integer(token, 1) for token in lines[0].split()]
    if len(fields) != 2 or None in fields:
        raise FormatError(f"{what} header must be two integers", 1)
    n, count = fields
    if n < 1 or count < 0:
        raise FormatError(f"invalid {what} header values {n} {count}", 1)
    return n, count


def _data_lines(lines: list[str], count: int, what: str) -> list[tuple[int, str]]:
    body = [(i + 1, line) for i, line in enumerate(lines[1:], start=1) if line.strip()]
    if len(body) != count:
        raise FormatError(
            f"expected {count} {what} lines, found {len(body)}",
            body[count][0] if len(body) > count else len(lines) + 1,
        )
    return body


def _bitstring(token: str, n: int) -> BitVector | None:
    """The support an n-character bitstring token spells, else None."""
    try:
        support = BitVector.from01(token)
    except DimensionError:
        return None
    return support if support.n == n else None


def read_polynomial(source: str | os.PathLike | TextIO) -> SparsePolynomial:
    """Read the "n s" / "value bitstring" coefficient format."""
    return _parse_polynomial(_read_lines(source))


def _parse_polynomial(lines: list[str]) -> SparsePolynomial:
    n, s = _parse_header(lines, "polynomial")
    entries: dict[BitVector, float] = {}
    for lineno, line in _data_lines(lines, s, "coefficient"):
        parts = line.split()
        if len(parts) != 2:
            raise FormatError("expected 'value bitstring'", lineno)
        value = _parse_value(parts[0], lineno)
        support = _bitstring(parts[1], n)
        if support is None:
            raise FormatError(f"bitstring must be {n} chars of 0/1", lineno)
        if support in entries:
            raise FormatError(f"duplicate support {parts[1]!r}", lineno)
        if value == 0:
            raise FormatError("zero coefficient not allowed", lineno)
        entries[support] = value
    return SparsePolynomial(n, entries)


def write_polynomial(poly: SparsePolynomial, sink: str | os.PathLike | TextIO) -> None:
    """Write the coefficient format, supports in canonical ascending order."""
    entries = sorted(poly.entries.items(), key=lambda kv: kv[0].mask)
    body = "".join(f"{_numeral(v, k)} {k.to01()}\n" for k, v in entries)
    _write_text(sink, f"{poly.n} {poly.sparsity}\n{body}")


def read_hypergraph(source: str | os.PathLike | TextIO) -> SparsePolynomial:
    """Read the "n m" / "w v1 v2 ... vk" edge-list format as the hypergraph's
    edge-count polynomial: one monomial per edge, its weight as the
    coefficient, in file order."""
    return _parse_hypergraph(_read_lines(source))


def _parse_hypergraph(lines: list[str]) -> SparsePolynomial:
    n, m = _parse_header(lines, "hypergraph")
    entries: dict[BitVector, float] = {}
    for lineno, line in _data_lines(lines, m, "edge"):
        parts = line.split()
        if len(parts) < 2:
            raise FormatError("edge needs a weight and at least one vertex", lineno)
        weight = _parse_value(parts[0], lineno)
        if weight == 0:
            raise FormatError("zero edge weight not allowed", lineno)
        coords = []
        for tok in parts[1:]:
            v = _integer(tok, lineno)
            if v is None:
                raise FormatError(f"invalid vertex id {tok!r}", lineno)
            if not 1 <= v <= n:
                raise FormatError(f"vertex id {v} out of range 1..{n}", lineno)
            coords.append(v)
        if len(set(coords)) != len(coords):
            raise FormatError("duplicate vertex in edge", lineno)
        verts = BitVector.from_coords(n, coords)
        if verts in entries:
            raise FormatError(f"duplicate edge vertex-set {verts.to01()!r}", lineno)
        entries[verts] = weight
    return SparsePolynomial(n, entries)


def read_instance(source: str | os.PathLike | TextIO, form: str = "auto") -> SparsePolynomial:
    """Read a coefficient map from a source in either format, reading it once.

    form is "poly", "hgr" (the edge list) or "auto", which reads n from the
    header as both readers do, then the first data line: two tokens whose
    second is an n-character bitstring, or no data line at all, mean the
    coefficient format, anything else the edge list.
    """
    if form not in ("auto", "poly", "hgr"):
        raise ParameterError(f"unknown instance format {form!r}")
    lines = _read_lines(source)
    if form == "auto":
        n, _ = _parse_header(lines, "polynomial")
        first = next((line.split() for line in lines[1:] if line.strip()), None)
        poly = first is None or len(first) == 2 and _bitstring(first[1], n) is not None
        form = "poly" if poly else "hgr"
    return _parse_polynomial(lines) if form == "poly" else _parse_hypergraph(lines)
