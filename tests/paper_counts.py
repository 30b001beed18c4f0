"""The paper's counts and the runners' golden runs, on fixed instance sets.

Three sets are recorded, with no times, so the file changes only when a
runner's behaviour does:

- the acceptance grid, 100 instances per (n, s, d) cell over
  n in GRID_NS, s in GRID_SS and d in GRID_DS (4,500 instances), as query
  and round totals per (n, d) and per (n, s, d);
- the scaling sweep, s = 16 and seeds 0-4 per (n, d) over n in SWEEP_NS
  and d in SWEEP_DS, as totals over the seeds, the number of exact runs,
  and the seed means of queries / (s*d*log2(n/d)), rounds /
  (d^2*log2(n/d)) and harness.optimality_ratio, with s the instance's
  actual sparsity;
- the golden runs, 36 seeded instances (instances()), as each runner's
  recovered map, query and round counts, and the SHA-256 of its
  transcript, so a refactor that changes no behaviour moves none of them.

Regenerate the committed file only when a behaviour change is intended:

    PYTHONPATH=src python3 tests/paper_counts.py > BENCH_paper.json

To see which entries a change moves, each runner's grid-total queries
and rounds, hybrid's grid totals as a percentage below pasmt's, and the
(n, d) cells where hybrid's totals exceed pasmt's, committed -> current
(the command exits 1 when any entry differs, 0 otherwise):

    PYTHONPATH=src python3 tests/paper_counts.py --diff
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import sys
from pathlib import Path
from typing import Iterable, Sequence

from sparsemobius.core import BitVector
from sparsemobius.fasmt import fasmt_run
from sparsemobius.harness import (
    ALGORITHMS,
    BenchRecord,
    GridCell,
    generate_synthetic,
    run_benchmark,
    runner_design,
)
from sparsemobius.hybrid import hybrid_run
from sparsemobius.oracle import CountingOracle, SparsePolynomial, SparsePolyOracle
from sparsemobius.pasmt import pasmt_run

from weights import integer_weights

COUNTS = Path(__file__).resolve().parent.parent / "BENCH_paper.json"

GRID_NS = (16, 32, 64, 128, 256)
GRID_SS = (1, 4, 16)
GRID_DS = (1, 2, 4)
INSTANCES_PER_CELL = 100

SWEEP_NS = (64, 256, 1024, 4096, 16384)
SWEEP_DS = (2, 4, 8)
SWEEP_S = 16
SWEEP_SEEDS = range(5)
DIGITS = 4  # decimal places kept of each sweep ratio

HYBRID_SEED = 2024


def grid_cells() -> list[GridCell]:
    """The acceptance grid, each instance under every runner in turn."""
    shapes = [
        (n, s, d)
        for n in GRID_NS
        for d in GRID_DS
        for s in GRID_SS
        for _ in range(INSTANCES_PER_CELL)
    ]
    return [
        GridCell(algorithm, n, s, d, 1_000_000 + idx)
        for idx, (n, s, d) in enumerate(shapes)
        for algorithm in ALGORITHMS
    ]


def grid_counts(records: Iterable[BenchRecord]) -> dict:
    """Query and round totals per runner, per (n, d) and per (n, s, d)."""
    by_nd = {a: {} for a in ALGORITHMS}
    by_nsd = {a: {} for a in ALGORITHMS}
    for r in records:
        for table, key in (
            (by_nd, f"n{r.n}-d{r.d}"),
            (by_nsd, f"n{r.n}-s{r.s_requested}-d{r.d}"),
        ):
            queries, rounds = table[r.algorithm].get(key, (0, 0))
            table[r.algorithm][key] = [queries + r.queries, rounds + r.rounds]
    return {"grid_nd": by_nd, "grid_nsd": by_nsd}


def sweep_rows(ns: Sequence[int] = SWEEP_NS) -> dict:
    """The scaling sweep's row per runner and (n, d), for n in ns."""
    cells = [
        GridCell(algorithm, n, SWEEP_S, d, seed)
        for n in ns
        for d in SWEEP_DS
        for seed in SWEEP_SEEDS
        for algorithm in ALGORITHMS
    ]
    runs: dict[tuple, list[BenchRecord]] = {}
    for r in run_benchmark(cells):
        runs.setdefault((r.algorithm, r.n, r.d), []).append(r)
    rows = {a: {} for a in ALGORITHMS}
    for (algorithm, n, d), recs in runs.items():
        log = math.log2(n / d)
        rows[algorithm][f"n{n}-d{d}"] = {
            "queries": sum(r.queries for r in recs),
            "rounds": sum(r.rounds for r in recs),
            "exact": sum(r.exact for r in recs),
            "queries_per_sd_log": _mean([r.queries / (r.s_actual * d * log) for r in recs]),
            "rounds_per_d2_log": _mean([r.rounds / (d * d * log) for r in recs]),
            "optimality_ratio": _mean([r.optimality_ratio for r in recs]),
        }
    return rows


def _mean(values: list[float]) -> float:
    return round(math.fsum(values) / len(values), DIGITS)


def instances() -> list[tuple[str, SparsePolynomial, int, float]]:
    """(name, truth, d, tau) for every golden instance."""
    cases = []
    seed = 500
    for n in (16, 64, 256):
        for s in (1, 4, 16):
            for d in (1, 2, 4):
                seed += 1
                truth = generate_synthetic(n, s, d, seed=seed)
                cases.append((f"n{n}-s{s}-d{d}-seed{seed}", truth, d, 1e-9))
    for n, s, d in ((20, 6, 3), (50, 16, 4), (100, 8, 3)):
        # n not a multiple of d: the splitting tree's blocks differ in size
        seed += 1
        truth = generate_synthetic(n, s, d, seed=seed)
        cases.append((f"n{n}-s{s}-d{d}-seed{seed}", truth, d, 1e-9))
    # integer weights, recovered in exact arithmetic at tau = 0: signed ones,
    # and positive ones drawn as the benchmark's integer workload draws them
    drawn = generate_synthetic(64, 16, 2, seed=901, weight_lo=-8.0, weight_hi=8.0)
    signed = {k: int(v) or 9 for k, v in drawn.entries.items()}
    cases.append(("int-signed-n64-s16-d2-seed901", SparsePolynomial(64, signed), 2, 0.0))
    positive = integer_weights(generate_synthetic(256, 16, 4, seed=902))
    cases.append(("int-n256-s16-d4-seed902", positive, 4, 0.0))
    truth = SparsePolynomial(1, {BitVector(1, 1): 1.5, BitVector(1, 0): -0.25})
    cases.append(("n1-two-terms", truth, 1, 1e-9))
    for n in (1024, 2048):
        # the benchmark's wide_n regime: long rows, few live buckets
        seed += 1
        truth = generate_synthetic(n, 8, 4, seed=seed)
        cases.append((f"n{n}-s8-d4-seed{seed}", truth, 4, 1e-9))
    # the benchmark's dense_int shape: many live buckets per level
    positive = integer_weights(generate_synthetic(256, 64, 2, seed=903))
    cases.append(("int-n256-s64-d2-seed903", positive, 2, 0.0))
    return cases


def run_one(runner: str, truth: SparsePolynomial, d: int, tau: float) -> dict:
    n = truth.n
    f = CountingOracle(SparsePolyOracle(truth))
    sink = io.StringIO()
    if runner == "pasmt":
        got = pasmt_run(f, runner_design("pasmt", n, d), d, tau, transcript=sink)
    elif runner == "fasmt":
        got = fasmt_run(f, n, d, tau, transcript=sink)
    else:
        got = hybrid_run(f, n, d, HYBRID_SEED, tau, transcript=sink)
    return {
        "map": sorted([k.mask, repr(v)] for k, v in got.entries.items()),
        "queries": f.query_count,
        "rounds": f.round_count,
        "transcript_sha256": hashlib.sha256(sink.getvalue().encode("ascii")).hexdigest(),
    }


def record() -> dict:
    cases = instances()
    golden = {
        runner: {name: run_one(runner, truth, d, tau) for name, truth, d, tau in cases}
        for runner in ALGORITHMS
    }
    return grid_counts(run_benchmark(grid_cells())) | {"sweep": sweep_rows(), "golden": golden}


def _moved(want, got) -> str:
    """old -> new, or for a dict entry each field that moved, old -> new if numeric."""
    if want is None or got is None:
        return "not recorded" if want is None else "no longer run"
    if not isinstance(want, dict):
        return f"{want} -> {got}"
    fields = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
    numeric = {k for k in fields if isinstance(want.get(k), (int, float))}
    return ", ".join(f"{k} {want.get(k)} -> {got.get(k)}" if k in numeric else k for k in fields)


def diff_lines(committed: dict, current: dict) -> list[str]:
    """One line per section, runner and cell whose entry differs."""
    lines = []
    for section in committed.keys() | current.keys():
        for runner in ALGORITHMS:
            want = committed.get(section, {}).get(runner, {})
            got = current.get(section, {}).get(runner, {})
            for cell in want.keys() | got.keys():
                if want.get(cell) != got.get(cell):
                    change = _moved(want.get(cell), got.get(cell))
                    lines.append(f"{section}\t{runner}\t{cell}\t{change}")
    return sorted(lines)


def entry_count(counts: dict) -> int:
    return sum(len(cells) for runners in counts.values() for cells in runners.values())


def report_diff(committed: dict, current: dict) -> int:
    """Print the entries that differ and their count; 1 if any differ, else 0."""
    lines = diff_lines(committed, current)
    print("\n".join(lines + [f"{len(lines)} of {entry_count(current)} entries differ from {COUNTS.name}"]))
    return 1 if lines else 0


def grid_totals(counts: dict) -> dict[str, list[int]]:
    """Each runner's [queries, rounds] summed over the grid's (n, d) cells."""
    return {
        runner: [sum(column) for column in zip(*cells.values())]
        for runner, cells in counts["grid_nd"].items()
    }


def totals_lines(committed: dict, current: dict) -> list[str]:
    """One line per runner: its grid-total queries and rounds, committed -> current."""
    want, got = grid_totals(committed), grid_totals(current)
    return [
        f"grid total\t{runner}\tqueries {want[runner][0]} -> {got[runner][0]}, "
        f"rounds {want[runner][1]} -> {got[runner][1]}"
        for runner in ALGORITHMS
    ]


def below_pasmt(counts: dict) -> list[float]:
    """Hybrid's grid-total queries and rounds, each as a percentage below
    pasmt's, to one decimal."""
    totals = grid_totals(counts)
    return [round(100 * (1 - h / p), 1) for h, p in zip(totals["hybrid"], totals["pasmt"])]


def below_pasmt_line(committed: dict, current: dict) -> str:
    """Hybrid's grid totals below pasmt's, committed -> current."""
    (want_q, want_r), (got_q, got_r) = below_pasmt(committed), below_pasmt(current)
    return (
        f"below pasmt\thybrid\tqueries {want_q} % -> {got_q} %, "
        f"rounds {want_r} % -> {got_r} %"
    )


def losing_cells(counts: dict) -> list[tuple[int, int]]:
    """The grid's (n, d) cells, ascending, where hybrid's query or round
    total exceeds pasmt's."""
    cells = counts["grid_nd"]
    return sorted(
        tuple(int(part[1:]) for part in cell.split("-"))
        for cell, hybrid in cells["hybrid"].items()
        if any(h > p for h, p in zip(hybrid, cells["pasmt"][cell]))
    )


def losing_line(committed: dict, current: dict) -> str:
    """The cells hybrid loses to pasmt, committed -> current."""
    return f"losing cells\thybrid\t{losing_cells(committed)} -> {losing_cells(current)}"


def format_counts(counts: dict) -> str:
    """The counts as JSON with one line per cell, so a change diffs readably."""
    sections = []
    for section, runners in counts.items():
        blocks = []
        for runner, cells in runners.items():
            lines = ",\n".join(f"   {json.dumps(c)}: {json.dumps(v)}" for c, v in cells.items())
            blocks.append(f"  {json.dumps(runner)}: {{\n{lines}\n  }}")
        sections.append(f" {json.dumps(section)}: {{\n" + ",\n".join(blocks) + "\n }")
    return "{\n" + ",\n".join(sections) + "\n}"


if __name__ == "__main__":
    current = record()
    if sys.argv[1:] == ["--diff"]:
        committed = json.loads(COUNTS.read_text(encoding="ascii"))
        status = report_diff(committed, current)
        print("\n".join(totals_lines(committed, current)))
        print(below_pasmt_line(committed, current))
        print(losing_line(committed, current))
        sys.exit(status)
    else:
        print(format_counts(current))
