"""Sparse polynomials in the AND basis and the evaluation oracles over them.

A polynomial is a finite map from monomial supports (bit vectors) to nonzero
real coefficients; its value at a point x is the sum of coefficients whose
support is componentwise below x.  Unweighted hypergraph instances produce
integer coefficients, and evaluation keeps exact integers in that case, so
reconstruction can run with a zero tolerance.

Every reconstruction algorithm routes each evaluation through a
CountingOracle, the only mutable object on the query path.  It tallies
individual queries and declared batch boundaries (rounds).
"""

from __future__ import annotations

import io
import math
import os
from typing import Iterable, Mapping, Protocol, Sequence, TextIO

from .core import BitVector
from .errors import DimensionError, FormatError, ValidationError

__all__ = [
    "DEFAULT_TAU",
    "SparsePolynomial",
    "Hypergraph",
    "QueryOracle",
    "SparsePolyOracle",
    "CountingOracle",
    "eval_sparse",
    "hypergraph_to_polynomial",
    "read_polynomial",
    "write_polynomial",
    "read_hypergraph",
    "write_hypergraph",
]

DEFAULT_TAU = 1e-9


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
            if not math.isfinite(v):
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

    def degree(self) -> int:
        """Largest support weight present, 0 for the zero polynomial."""
        return max((k.weight() for k in self.entries), default=0)

    def support(self) -> set[BitVector]:
        return set(self.entries)

    def evaluate(self, x: BitVector) -> float:
        return eval_sparse(self, x)

    def close_to(self, other: "SparsePolynomial", value_tol: float = DEFAULT_TAU) -> bool:
        """Same dimension, same supports, values within value_tol."""
        if self.n != other.n or self.entries.keys() != other.entries.keys():
            return False
        return all(
            abs(v - other.entries[k]) <= value_tol for k, v in self.entries.items()
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SparsePolynomial)
            and self.n == other.n
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self.entries.items())))

    def __repr__(self) -> str:
        return f"SparsePolynomial(n={self.n}, s={self.sparsity})"


def eval_sparse(poly: SparsePolynomial, x: BitVector) -> float:
    """Sum of coefficients whose support is componentwise below x."""
    if x.n != poly.n:
        raise DimensionError(f"point length {x.n}, expected {poly.n}")
    nx = ~x.mask
    total = 0
    for k, v in poly.entries.items():
        if k.mask & nx == 0:
            total += v
    return total


class Hypergraph:
    """Weighted hypergraph on vertices 1..n with distinct edge vertex-sets."""

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges: Iterable[tuple[BitVector, float]]):
        if n < 1:
            raise DimensionError(f"vertex count must be positive, got {n}")
        seen: set[BitVector] = set()
        kept: list[tuple[BitVector, float]] = []
        for verts, w in edges:
            if verts.n != n:
                raise DimensionError(
                    f"edge {verts.to01()!r} has length {verts.n}, expected {n}"
                )
            if verts in seen:
                raise ValidationError(f"duplicate edge vertex-set {verts.to01()!r}")
            if w == 0 or not math.isfinite(w):
                raise ValidationError(f"edge {verts.to01()!r} has invalid weight {w!r}")
            seen.add(verts)
            kept.append((verts, w))
        self.n = n
        self.edges = tuple(kept)

    def __repr__(self) -> str:
        return f"Hypergraph(n={self.n}, m={len(self.edges)})"


def hypergraph_to_polynomial(graph: Hypergraph) -> SparsePolynomial:
    """Coefficient map with one monomial per edge, weight as coefficient."""
    return SparsePolynomial(graph.n, dict(graph.edges))


class QueryOracle(Protocol):
    """Anything that can evaluate the hidden function at a point."""

    n: int

    def eval(self, x: BitVector) -> float: ...


class SparsePolyOracle:
    """Evaluation oracle backed by an explicit coefficient map."""

    __slots__ = ("n", "_items")

    def __init__(self, poly: SparsePolynomial):
        self.n = poly.n
        self._items = [(k.mask, v) for k, v in poly.entries.items()]

    def eval(self, x: BitVector) -> float:
        if x.n != self.n:
            raise DimensionError(f"point length {x.n}, expected {self.n}")
        nx = ~x.mask
        total = 0
        for mask, v in self._items:
            if mask & nx == 0:
                total += v
        return total


class CountingOracle:
    """Counting wrapper; the only mutable object on the query path.

    query_count is the number of evaluations since construction and
    round_count the number of declared batch boundaries.  A bare eval call
    is its own batch of one.  An empty batch increments nothing.
    """

    __slots__ = ("inner", "query_count", "round_count")

    def __init__(self, inner: QueryOracle):
        self.inner = inner
        self.query_count = 0
        self.round_count = 0

    @property
    def n(self) -> int:
        return self.inner.n

    def eval(self, x: BitVector) -> float:
        self.query_count += 1
        self.round_count += 1
        return self.inner.eval(x)

    def batch_eval(self, xs: Sequence[BitVector]) -> list[float]:
        """Evaluate a batch issued in one adaptive round."""
        if not xs:
            return []
        self.query_count += len(xs)
        self.round_count += 1
        inner_eval = self.inner.eval
        return [inner_eval(x) for x in xs]


def _parse_value(token: str, lineno: int) -> float:
    """Numeric literal, kept as int when written as one (exact integer mode)."""
    try:
        return int(token)
    except ValueError:
        pass
    try:
        value = float(token)
    except ValueError:
        raise FormatError(f"invalid numeric value {token!r}", lineno) from None
    if not math.isfinite(value):
        raise FormatError(f"non-finite value {token!r}", lineno)
    return value


def _read_lines(source: str | os.PathLike | TextIO) -> list[str]:
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="ascii") as handle:
            return handle.read().splitlines()
    return source.read().splitlines()


def _parse_header(lines: list[str], what: str) -> tuple[int, int]:
    if not lines:
        raise FormatError(f"empty {what} file", 1)
    parts = lines[0].split()
    if len(parts) != 2:
        raise FormatError(f"{what} header must be two integers", 1)
    try:
        n, count = int(parts[0]), int(parts[1])
    except ValueError:
        raise FormatError(f"{what} header must be two integers", 1) from None
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


def read_polynomial(source: str | os.PathLike | TextIO) -> SparsePolynomial:
    """Read the "n s" / "value bitstring" coefficient format."""
    lines = _read_lines(source)
    n, s = _parse_header(lines, "polynomial")
    entries: dict[BitVector, float] = {}
    for lineno, line in _data_lines(lines, s, "coefficient"):
        parts = line.split()
        if len(parts) != 2:
            raise FormatError("expected 'value bitstring'", lineno)
        value = _parse_value(parts[0], lineno)
        bits = parts[1]
        if len(bits) != n or set(bits) - {"0", "1"}:
            raise FormatError(f"bitstring must be {n} chars of 0/1", lineno)
        support = BitVector.from01(bits)
        if support in entries:
            raise FormatError(f"duplicate support {bits!r}", lineno)
        if value == 0:
            raise FormatError("zero coefficient not allowed", lineno)
        entries[support] = value
    return SparsePolynomial(n, entries)


def write_polynomial(poly: SparsePolynomial, sink: str | os.PathLike | TextIO) -> None:
    """Write the coefficient format, supports in canonical ascending order."""
    out = io.StringIO()
    out.write(f"{poly.n} {poly.sparsity}\n")
    for k in sorted(poly.entries, key=lambda v: v.mask):
        out.write(f"{poly.entries[k]!r} {k.to01()}\n")
    text = out.getvalue()
    if isinstance(sink, (str, os.PathLike)):
        with open(sink, "w", encoding="ascii") as handle:
            handle.write(text)
    else:
        sink.write(text)


def read_hypergraph(source: str | os.PathLike | TextIO) -> Hypergraph:
    """Read the "n m" / "w v1 v2 ... vk" edge-list format."""
    lines = _read_lines(source)
    n, m = _parse_header(lines, "hypergraph")
    edges: list[tuple[BitVector, float]] = []
    seen: set[BitVector] = set()
    for lineno, line in _data_lines(lines, m, "edge"):
        parts = line.split()
        if len(parts) < 2:
            raise FormatError("edge needs a weight and at least one vertex", lineno)
        weight = _parse_value(parts[0], lineno)
        if weight == 0:
            raise FormatError("zero edge weight not allowed", lineno)
        coords = []
        for tok in parts[1:]:
            try:
                v = int(tok)
            except ValueError:
                raise FormatError(f"invalid vertex id {tok!r}", lineno) from None
            if not 1 <= v <= n:
                raise FormatError(f"vertex id {v} out of range 1..{n}", lineno)
            coords.append(v)
        if len(set(coords)) != len(coords):
            raise FormatError("duplicate vertex in edge", lineno)
        verts = BitVector.from_coords(n, coords)
        if verts in seen:
            raise FormatError(f"duplicate edge vertex-set {verts.to01()!r}", lineno)
        seen.add(verts)
        edges.append((verts, weight))
    return Hypergraph(n, edges)


def write_hypergraph(graph: Hypergraph, sink: str | os.PathLike | TextIO) -> None:
    out = io.StringIO()
    out.write(f"{graph.n} {len(graph.edges)}\n")
    for verts, w in graph.edges:
        coords = " ".join(str(c) for c in verts.coords())
        out.write(f"{w!r} {coords}\n")
    text = out.getvalue()
    if isinstance(sink, (str, os.PathLike)):
        with open(sink, "w", encoding="ascii") as handle:
            handle.write(text)
    else:
        sink.write(text)
