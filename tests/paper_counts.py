"""The paper's counts: queries and rounds per runner on fixed instance sets.

Two sets are recorded, with no times, so the file changes only when a
runner's behaviour does:

- the acceptance grid, 100 instances per (n, s, d) cell over
  n in GRID_NS, s in GRID_SS and d in GRID_DS (4,500 instances), as query
  and round totals per (n, d) and per (n, s, d);
- the scaling sweep, s = 16 and seeds 0-4 per (n, d) over n in SWEEP_NS
  and d in SWEEP_DS, as totals over the seeds, the number of exact runs,
  and the seed means of queries / (s*d*log2(n/d)), rounds /
  (d^2*log2(n/d)) and harness.optimality_ratio, with s the instance's
  actual sparsity.

Regenerate the committed file only when a behaviour change is intended:

    PYTHONPATH=src python3 tests/paper_counts.py > BENCH_paper.json

To see which entries a change moves (the command exits 1 when any entry
differs, 0 otherwise):

    PYTHONPATH=src python3 tests/paper_counts.py --diff
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from typing import Iterable, Sequence

from sparsemobius.harness import ALGORITHMS, BenchRecord, GridCell, run_benchmark

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


def grid_cells() -> list[GridCell]:
    """The acceptance grid, each instance under every runner in turn."""
    instances = [
        (n, s, d)
        for n in GRID_NS
        for d in GRID_DS
        for s in GRID_SS
        for _ in range(INSTANCES_PER_CELL)
    ]
    return [
        GridCell(algorithm, n, s, d, 1_000_000 + idx)
        for idx, (n, s, d) in enumerate(instances)
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


def record() -> dict:
    return grid_counts(run_benchmark(grid_cells())) | {"sweep": sweep_rows()}


def diff_lines(committed: dict, current: dict) -> list[str]:
    """One line per section, runner and cell whose entry differs."""
    lines = []
    for section in committed.keys() | current.keys():
        for runner in ALGORITHMS:
            want = committed.get(section, {}).get(runner, {})
            got = current.get(section, {}).get(runner, {})
            for cell in list(want) + [c for c in got if c not in want]:
                if want.get(cell) != got.get(cell):
                    lines.append(f"{section}\t{runner}\t{cell}\t{want.get(cell)} -> {got.get(cell)}")
    return sorted(lines)


def entry_count(counts: dict) -> int:
    return sum(len(cells) for runners in counts.values() for cells in runners.values())


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
        lines = diff_lines(json.loads(COUNTS.read_text(encoding="ascii")), current)
        print("\n".join(lines + [f"{len(lines)} of {entry_count(current)} entries differ from {COUNTS.name}"]))
        sys.exit(1 if lines else 0)
    else:
        print(format_counts(current))
