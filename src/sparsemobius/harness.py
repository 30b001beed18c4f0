"""Synthetic instances, information-theoretic bounds, and the benchmark loop.

Instances are random weighted hypergraphs: each edge draws a cardinality
uniform on {1..min(d, n)}, then a uniform vertex set of that cardinality
(rng.random_subset), then (after duplicate vertex-sets are dropped) an
independent weight uniform on [weight_lo, weight_hi).  The default weight
range [1, 2) keeps every coefficient positive, which guarantees the
subset-sum independence the pruning rule needs.  All randomness comes from
the named 64-bit generator in rng, recorded in the CSV header, so a seed
pins the instance bit for bit.
"""

from __future__ import annotations

import csv
import io
import math
import os
import time
from dataclasses import asdict, dataclass, fields
from functools import lru_cache
from typing import Sequence, TextIO

from .core import BitVector, TestMatrix
from .errors import FormatError, ParameterError, SparseMobiusError
from .fasmt import fasmt_run
from .grouptest import construct_disjunct, construct_list_disjunct
from .hybrid import hybrid_run
from .oracle import (
    DEFAULT_TAU,
    CountingOracle,
    SparsePolynomial,
    SparsePolyOracle,
    _integer,
    _read_lines,
    _write_text,
    check_tau,
)
from .pasmt import pasmt_run
from .rng import PRNG_ID, SplitMix64, random_subset

__all__ = [
    "ALGORITHMS",
    "BenchRecord",
    "GridCell",
    "generate_synthetic",
    "lower_bound",
    "optimality_ratio",
    "run_benchmark",
    "run_cell",
    "runner_design",
    "write_csv",
    "read_grid",
]

ALGORITHMS = ("pasmt", "fasmt", "hybrid")

def generate_synthetic(
    n: int,
    s: int,
    d: int,
    seed: int,
    weight_lo: float = 1.0,
    weight_hi: float = 2.0,
) -> SparsePolynomial:
    """Random s-sparse degree <= d instance; duplicates may shrink s.

    A weight range that is empty, or whose ends or width are not finite,
    raises ParameterError before any draw."""
    if n < 1 or d < 1:
        raise ParameterError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    if s < 0:
        raise ParameterError(f"need s >= 0, got {s}")
    if not all(map(math.isfinite, (weight_lo, weight_hi, weight_hi - weight_lo))):
        # an infinite range, or one too wide for hi - lo, would draw a
        # non-finite coefficient
        raise ParameterError(f"weight range [{weight_lo}, {weight_hi}) is not finite")
    if not weight_lo < weight_hi:
        raise ParameterError(f"empty weight range [{weight_lo}, {weight_hi})")
    rng = SplitMix64(seed)
    supports: list[BitVector] = []
    for _ in range(s):
        c = 1 + rng.below(min(d, n))
        supports.append(BitVector.from_coords(n, random_subset(rng, n, c)))
    # a repeated support draws no second weight: dict.fromkeys keeps each
    # support's first copy, in order
    entries = {k: rng.uniform(weight_lo, weight_hi) for k in dict.fromkeys(supports)}
    return SparsePolynomial(n, entries, degree_bound=d)


def lower_bound(n: int, s: int, d: int) -> float:
    """Minimum query count any exact reconstructor needs on this class."""
    if s < 2 or d < 1 or n <= d:
        raise ParameterError(
            f"bound needs s >= 2, d >= 1, n > d; got n={n}, s={s}, d={d}"
        )
    return s * d * math.log2(n / d) / (2 * math.log2(s) + 1)


def optimality_ratio(queries: int, n: int, s: int, d: int) -> float:
    """Observed queries against the information-theoretic scaling, over
    lower_bound's domain."""
    lower_bound(n, s, d)  # raises ParameterError outside the domain
    if queries < 0:
        raise ParameterError(f"need queries >= 0, got {queries}")
    return queries * math.log2(s) / (s * d * math.log2(n / d))


@dataclass(frozen=True)
class GridCell:
    """One benchmark configuration."""

    algorithm: str
    n: int
    s: int
    d: int
    seed: int


@dataclass(frozen=True)
class BenchRecord:
    """One benchmark run.  The bound fields are None outside lower_bound's
    domain, where it raises ParameterError."""

    algorithm: str
    n: int
    s_requested: int
    s_actual: int
    d: int
    seed: int
    queries: int
    rounds: int
    runtime_ms: float
    exact: bool
    lower_bound: float | None
    optimality_ratio: float | None


@lru_cache(maxsize=None)
def runner_design(algorithm: str, n: int, d: int) -> TestMatrix | None:
    """The design an algorithm runs over at (n, d), built once per process.

    pasmt's is construct_disjunct(n, d), and hybrid's is a list design (a
    matrix that keeps its seed) seeded by (n, d) alone, so every instance
    of a cell shares it; both exist for every n >= 1, d >= 1.  Hybrid's
    has pasmt's Sperner columns at d = 1 (where n > 2), and only at d >= 2
    is it a prefix of any wider design drawn from the same seed.  fasmt
    needs none.  Each algorithm builds only its own design, so a pasmt or
    fasmt run never pays for hybrid's.
    """
    if algorithm == "pasmt":
        return construct_disjunct(n, d)
    if algorithm == "hybrid":
        return construct_list_disjunct(n, d, seed=40_000 + 97 * n + d)
    return None


def run_cell(
    algorithm: str,
    oracle: CountingOracle,
    d: int,
    tau: float,
    transcript: TextIO | None = None,
) -> SparsePolynomial:
    """Run the named algorithm on the oracle over its runner_design at
    (oracle.n, d)."""
    if algorithm not in ALGORITHMS:
        raise ParameterError(f"unknown algorithm {algorithm!r}")
    n = oracle.n
    design = runner_design(algorithm, n, d)
    if algorithm == "pasmt":
        return pasmt_run(oracle, design, d, tau, transcript)
    if algorithm == "fasmt":
        return fasmt_run(oracle, n, d, tau, transcript)
    return hybrid_run(oracle, n, d, design.seed, tau, transcript, design)


def run_benchmark(
    grid: Sequence[GridCell],
    tau: float = DEFAULT_TAU,
) -> list[BenchRecord]:
    """Generate, reconstruct, and score every cell of the grid.

    Each cell's runner_design is built before its timer starts, so
    runtime_ms is the solve and the exactness check only.  An unknown
    algorithm or a tau that is negative or not finite raises
    ParameterError before any cell runs.
    """
    check_tau(tau)
    for cell in grid:
        if cell.algorithm not in ALGORITHMS:
            raise ParameterError(f"unknown algorithm {cell.algorithm!r}")
    records = []
    for cell in grid:
        truth = generate_synthetic(cell.n, cell.s, cell.d, cell.seed)
        oracle = CountingOracle(SparsePolyOracle(truth))
        runner_design(cell.algorithm, cell.n, cell.d)
        start = time.perf_counter()
        try:
            recovered = run_cell(cell.algorithm, oracle, cell.d, tau)
            exact = recovered.close_to(truth)
        except SparseMobiusError:
            exact = False
        runtime_ms = (time.perf_counter() - start) * 1e3
        s_actual = truth.sparsity
        try:
            bound = lower_bound(cell.n, s_actual, cell.d)
            ratio = optimality_ratio(oracle.query_count, cell.n, s_actual, cell.d)
        except ParameterError:
            bound = ratio = None
        records.append(
            BenchRecord(
                algorithm=cell.algorithm,
                n=cell.n,
                s_requested=cell.s,
                s_actual=s_actual,
                d=cell.d,
                seed=cell.seed,
                queries=oracle.query_count,
                rounds=oracle.round_count,
                runtime_ms=runtime_ms,
                exact=exact,
                lower_bound=bound,
                optimality_ratio=ratio,
            )
        )
    return records


def write_csv(records: Sequence[BenchRecord], sink: str | os.PathLike | TextIO) -> None:
    """Write records with the generator identifier pinned in a comment."""
    out = io.StringIO()
    out.write(f"# prng={PRNG_ID}\n")
    writer = csv.DictWriter(
        out, fieldnames=[f.name for f in fields(BenchRecord)], lineterminator="\n"
    )
    writer.writeheader()
    for rec in records:
        # csv writes None as an empty cell and a float as its repr
        writer.writerow(asdict(rec) | {"exact": "true" if rec.exact else "false"})
    _write_text(sink, out.getvalue())


def read_grid(source: str | os.PathLike | TextIO) -> list[GridCell]:
    """Read 'algorithm n s d seed' lines; '#' starts a comment.  The four
    numbers are plain ASCII integer numerals, as in the instance files, so
    '1_6' or non-ASCII digits are not read as 16.  A line with another
    token, or with n < 1, s < 0 or d < 1, fails with its number before any
    cell runs."""
    lines = _read_lines(source)
    cells = []
    for lineno, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if len(parts) != 5:
            raise FormatError("expected 'algorithm n s d seed'", lineno)
        algorithm = parts[0]
        if algorithm not in ALGORITHMS:
            raise FormatError(f"unknown algorithm {algorithm!r}", lineno)
        values = [_integer(p, lineno) for p in parts[1:]]
        if None in values:
            raise FormatError("n, s, d, seed must be plain ASCII integers", lineno)
        n, s, d, seed = values
        if n < 1 or d < 1 or s < 0:
            raise FormatError(f"need n, d >= 1 and s >= 0, got n={n}, s={s}, d={d}", lineno)
        cells.append(GridCell(algorithm, n, s, d, seed))
    return cells
