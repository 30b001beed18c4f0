"""End-to-end acceptance checks, one test per numbered criterion.

Each criterion is a single test function so that ``pytest -v`` prints one
pass/fail line per criterion.  The scaled grid (criterion 2) is run once in
a module fixture and its per-run records feed the budget and envelope
checks (criteria 3, 4, and hybrid's envelope) and the cancellation
guardrail sweep (criterion 11).  The same records are checked against the
committed BENCH_paper.json, whose golden runs each runner must reproduce
(tests/paper_counts.py writes it).
"""

from __future__ import annotations

import io
import json
import math
import time
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import pytest

from sparsemobius.core import BitVector, syndrome
from sparsemobius.grouptest import (
    GbsaTree,
    construct_disjunct,
    decode_disjunct,
    gbsa_test_budget,
)
from sparsemobius.harness import (
    ALGORITHMS,
    GridCell,
    generate_synthetic,
    lower_bound,
    run_benchmark,
    run_cell,
    runner_design,
    write_csv,
)
from sparsemobius.oracle import DEFAULT_TAU, CountingOracle, SparsePolynomial, SparsePolyOracle
from sparsemobius.pasmt import pasmt_run
from sparsemobius.reference import (
    DenseTable,
    check_subset_sum_independence,
    zeta_transform,
)
from sparsemobius.rng import SplitMix64

import paper_counts
from disjunct import verify_disjunct
from envelope import hybrid_envelope
from paper_counts import GRID_DS, GRID_NS, GRID_SS, INSTANCES_PER_CELL
from weights import integer_weights


def _run(algorithm: str, truth: SparsePolynomial, d: int, transcript=None):
    """One run_cell dispatch on a fresh counting oracle over truth."""
    f = CountingOracle(SparsePolyOracle(truth))
    return run_cell(algorithm, f, d, DEFAULT_TAU, transcript), f


def _dense_zeta_values(poly: SparsePolynomial) -> list:
    table = DenseTable.zeros(poly.n)
    vals = list(table.values)
    for k, v in poly.entries.items():
        vals[k.mask] = v
    return zeta_transform(DenseTable(poly.n, vals)).values


@lru_cache(maxsize=1)
def _small_suite() -> tuple:
    """500 randomized instances with s <= 3 plus every single-monomial
    instance for n <= 10, half of them in exact integer mode."""
    suite = []
    for i in range(500):
        n = 1 + (i % 10)
        s = 1 + (i % 3)
        d = 1 + (i % n)
        truth = generate_synthetic(n, s, d, seed=50_000 + i)
        integer_mode = bool(i % 2)
        if integer_mode:
            truth = integer_weights(truth)
        suite.append((truth, d, integer_mode))
    for n in range(1, 11):
        for mask in range(1 << n):
            k = BitVector(n, mask)
            integer_mode = bool(mask & 1)
            value = 3 if integer_mode else 1.375
            truth = SparsePolynomial(n, {k: value})
            suite.append((truth, max(1, k.weight()), integer_mode))
    return tuple(suite)


@pytest.fixture(scope="module")
def scaled_grid():
    """Criterion-2 grid, run once; records feed criteria 3, 4, and 11
    and the committed paper counts."""
    cells = paper_counts.grid_cells()
    start = time.perf_counter()
    records = run_benchmark(cells)
    elapsed = time.perf_counter() - start
    return {"records": records, "elapsed": elapsed}


@pytest.fixture(scope="module")
def scaling_runs():
    """Criterion-7 sweeps: per-run records for FASMT, query means for PASMT."""
    fasmt_cells = [
        GridCell("fasmt", 256, s, 4, seed) for s in (4, 8, 16, 32) for seed in range(10)
    ]
    # the (n=256, s=16) point is shared between the two sweeps
    fasmt_cells += [
        GridCell("fasmt", n, 16, 4, seed) for n in (64, 1024) for seed in range(10)
    ]
    fasmt_records = run_benchmark(fasmt_cells)
    pasmt_cells = [
        GridCell("pasmt", 512, 16, d, seed) for d in (2, 4, 8) for seed in range(10)
    ]
    pasmt_records = run_benchmark(pasmt_cells)
    pasmt_means = {}
    for d in (2, 4, 8):
        qs = [r.queries for r in pasmt_records if r.d == d]
        pasmt_means[d] = sum(qs) / len(qs)
    return {
        "fasmt": fasmt_records,
        "pasmt": pasmt_records,
        "pasmt_means": pasmt_means,
    }


def test_criterion_01_small_instances_exact():
    """All three runners match the oracle at every point of every small
    instance: 500 randomized with s <= 3, plus all single monomials, n <= 10.
    Integer mode must be exact, float mode within 1e-6.  Under 2 minutes."""
    start = time.perf_counter()
    checked = 0
    for truth, d, integer_mode in _small_suite():
        n = truth.n
        base = SparsePolyOracle(truth)
        reference = [base.eval(BitVector(n, m)) for m in range(1 << n)]
        for runner in ("pasmt", "fasmt", "hybrid"):
            got, _ = _run(runner, truth, d)
            values = _dense_zeta_values(got)
            if integer_mode:
                assert values == reference, (runner, n, d, truth.entries)
            else:
                worst = max(abs(a - b) for a, b in zip(values, reference))
                assert worst <= 1e-6, (runner, n, d, worst)
            checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 3 * len(_small_suite())
    assert elapsed < 120.0, f"criterion 1 took {elapsed:.1f}s"


def test_criterion_02_scaled_grid_exact(scaled_grid):
    """100 instances per (n, s, d) cell over the 5 x 3 x 3 grid recover
    exactly (same support, values within 1e-9) under all three runners,
    within 5 minutes."""
    records = scaled_grid["records"]
    assert len(records) == 3 * INSTANCES_PER_CELL * len(GRID_NS) * len(GRID_SS) * len(GRID_DS)
    failures = [r for r in records if not r.exact]
    assert not failures, f"{len(failures)} inexact runs, first: {failures[:3]}"
    assert scaled_grid["elapsed"] < 300.0, f"grid took {scaled_grid['elapsed']:.1f}s"


def test_criterion_03_depth_first_query_budget(scaled_grid):
    """Every depth-first run of criterion 2 stays within
    1 + s_actual * (d * (ceil(log2(n/d)) + 2) + d); no violations."""
    violations = []
    count = 0
    for r in scaled_grid["records"]:
        if r.algorithm != "fasmt":
            continue
        count += 1
        n, d = r.n, r.d
        budget = 1 + r.s_actual * (d * (math.ceil(math.log2(n / d)) + 2) + d)
        assert budget == 1 + r.s_actual * gbsa_test_budget(n, d)
        if r.queries > budget:
            violations.append((n, r.s_requested, d, r.queries, budget))
    assert count == INSTANCES_PER_CELL * len(GRID_NS) * len(GRID_SS) * len(GRID_DS)
    assert not violations, violations[:5]


def test_criterion_04_breadth_first_envelope_and_rounds(scaled_grid):
    """Every breadth-first run of criterion 2 uses at most s_actual*b + 1
    queries in at most b rounds, the root sharing level 1's; with the
    matrix held fixed at (n=128, d=2), the round count is b whatever s."""
    for r in scaled_grid["records"]:
        if r.algorithm != "pasmt":
            continue
        b = runner_design("pasmt", r.n, r.d).b
        assert r.queries <= r.s_actual * b + 1, r
        assert r.rounds <= b, r

    H = construct_disjunct(128, 2)
    rounds_seen = set()
    for s in (1, 2, 4, 8, 16, 32, 64):
        seed = 300
        while generate_synthetic(128, s, 2, seed).sparsity != s:
            seed += 1
        truth = generate_synthetic(128, s, 2, seed)
        f = CountingOracle(SparsePolyOracle(truth))
        got = pasmt_run(f, H, 2)
        assert got.close_to(truth, 1e-9)
        rounds_seen.add(f.round_count)
    assert rounds_seen == {H.b}


def test_hybrid_envelope(scaled_grid):
    """Every hybrid run of criterion 2 stays within the envelope that
    prices its leaves one by one, a probed leaf at its probe plus, where
    it holds several coefficients, their search (tests/envelope.py)."""
    over = []
    for r in scaled_grid["records"]:
        if r.algorithm != "hybrid":
            continue
        truth = generate_synthetic(r.n, r.s_requested, r.d, r.seed)
        design = runner_design("hybrid", r.n, r.d)
        queries, rounds = hybrid_envelope(truth, design, r.d, DEFAULT_TAU)
        if r.queries > queries or r.rounds > rounds:
            over.append((r, queries, rounds))
    assert not over, (len(over), over[:3])


def test_hybrid_trades_between_the_other_runners(scaled_grid):
    """On the criterion-2 grid totals, hybrid makes fewer queries and needs
    fewer rounds than pasmt, and needs fewer rounds than fasmt."""
    totals = paper_counts.grid_totals(paper_counts.grid_counts(scaled_grid["records"]))
    assert totals["hybrid"][0] < totals["pasmt"][0], totals
    assert totals["hybrid"][1] < totals["pasmt"][1], totals
    assert totals["hybrid"][1] < totals["fasmt"][1], totals


# (n, d) cells of the criterion-2 grid where hybrid's query or round total
# exceeds pasmt's; a change that wins a cell back removes it here
HYBRID_LOSES_TO_PASMT = {(16, 4)}


def test_hybrid_loses_to_pasmt_only_in_known_cells(scaled_grid):
    """Per (n, d) cell, hybrid's totals exceed pasmt's in no cell outside
    HYBRID_LOSES_TO_PASMT."""
    losing = set(paper_counts.losing_cells(paper_counts.grid_counts(scaled_grid["records"])))
    assert losing <= HYBRID_LOSES_TO_PASMT, sorted(losing - HYBRID_LOSES_TO_PASMT)


@pytest.mark.parametrize(
    "n, s, d, integer", [(1024, 8, 4, False), (256, 64, 2, True)], ids=["wide_n", "dense_int"]
)
def test_hybrid_takes_fewer_rounds_than_pasmt_on_the_benchmark_shapes(n, s, d, integer):
    """On ten instances of each of two benchmark workloads' shapes, every
    pasmt and hybrid run is exact, and hybrid's total rounds are below
    pasmt's: the probe finishes a one-coefficient leaf of any size in one
    round, so phase 2 no longer outlasts pasmt's level loop on the dense
    integer shape."""
    rounds = {"pasmt": 0, "hybrid": 0}
    for seed in range(10):
        truth = generate_synthetic(n, s, d, seed)
        if integer:
            truth = integer_weights(truth)
        for algorithm in rounds:
            got, f = _run(algorithm, truth, d)
            if integer:
                assert got.entries == truth.entries, (algorithm, seed)
            else:
                assert got.close_to(truth, 1e-9), (algorithm, seed)
            rounds[algorithm] += f.round_count
    assert rounds["hybrid"] < rounds["pasmt"], rounds


def test_hybrid_costs_what_pasmt_costs_at_d1(committed):
    """At d = 1 hybrid's design is pasmt's Sperner design and its
    one-candidate leaves ask nothing, so it runs pasmt's level loop: every
    d = 1 cell of the recorded grid holds the same query and round totals
    for both."""
    cells = committed["grid_nd"]
    rows = [cell for cell in cells["hybrid"] if cell.endswith("-d1")]
    assert len(rows) == len(GRID_NS)
    assert all(cells["hybrid"][cell] == cells["pasmt"][cell] for cell in rows)


@pytest.fixture(scope="module")
def committed() -> dict:
    """BENCH_paper.json as committed."""
    return json.loads(paper_counts.COUNTS.read_text(encoding="ascii"))


def test_paper_counts_match_the_committed_file(scaled_grid, committed):
    """BENCH_paper.json holds the grid's counts as the fixture measured
    them, and the scaling sweep's rows as they are rerun at n <= 1024; the
    larger n are checked by `paper_counts.py --diff`."""
    grid = paper_counts.grid_counts(scaled_grid["records"])
    assert grid == {k: committed[k] for k in grid}
    small = tuple(n for n in paper_counts.SWEEP_NS if n <= 1024)
    keep = {f"n{n}-d{d}" for n in small for d in paper_counts.SWEEP_DS}
    want = {
        runner: {cell: row for cell, row in rows.items() if cell in keep}
        for runner, rows in committed["sweep"].items()
    }
    assert paper_counts.sweep_rows(small) == want


def test_golden_instance_set_matches_recording(committed):
    names = [name for name, *_ in paper_counts.instances()]
    assert all(list(committed["golden"][runner]) == names for runner in ALGORITHMS)


@pytest.mark.parametrize("runner", ALGORITHMS)
def test_runner_reproduces_golden_runs(runner, committed):
    for name, truth, d, tau in paper_counts.instances():
        assert paper_counts.run_one(runner, truth, d, tau) == committed["golden"][runner][name], name


def test_runners_agree_on_every_golden_map(committed):
    # integer instances run at tau = 0 and must agree exactly
    for name, _, _, tau in paper_counts.instances():
        maps = [dict(committed["golden"][runner][name]["map"]) for runner in ALGORITHMS]
        assert all(m.keys() == maps[0].keys() for m in maps), name
        for mask, value in maps[0].items():
            for other in maps[1:]:
                if tau == 0.0:
                    assert other[mask] == value, name
                else:
                    assert abs(float(other[mask]) - float(value)) <= 1e-9, name


def test_golden_diff_names_the_fields_that_moved(committed):
    name = next(iter(committed["golden"]["hybrid"]))
    queries = committed["golden"]["hybrid"][name]["queries"]
    moved = json.loads(json.dumps(committed))
    moved["golden"]["hybrid"][name]["queries"] += 1
    moved["golden"]["hybrid"][name]["transcript_sha256"] = "0" * 64
    del moved["golden"]["fasmt"][name]
    assert paper_counts.diff_lines(committed, committed) == []
    assert paper_counts.diff_lines(committed, moved) == [
        f"golden\tfasmt\t{name}\tno longer run",
        f"golden\thybrid\t{name}\tqueries {queries} -> {queries + 1}, transcript_sha256",
    ]


def test_paper_counts_diff_names_the_entries_that_moved(committed):
    cell_queries, cell_rounds = committed["grid_nd"]["hybrid"]["n16-d1"]
    moved = json.loads(json.dumps(committed))
    moved["grid_nd"]["hybrid"]["n16-d1"][1] += 1
    del moved["sweep"]["fasmt"]["n64-d2"]
    assert paper_counts.diff_lines(committed, moved) == [
        f"grid_nd\thybrid\tn16-d1\t[{cell_queries}, {cell_rounds}] -> [{cell_queries}, {cell_rounds + 1}]",
        "sweep\tfasmt\tn64-d2\tno longer run",
    ]
    assert json.loads(paper_counts.format_counts(committed)) == committed


def test_paper_counts_diff_exit_status(committed, capsys):
    moved = json.loads(json.dumps(committed))
    moved["golden"]["pasmt"][next(iter(committed["golden"]["pasmt"]))]["rounds"] += 1
    moved["grid_nsd"]["fasmt"]["n16-s1-d1"][0] += 1
    tail = f"of {paper_counts.entry_count(committed)} entries differ from {paper_counts.COUNTS.name}\n"
    assert paper_counts.report_diff(committed, committed) == 0
    assert capsys.readouterr().out == f"0 {tail}"
    assert paper_counts.report_diff(committed, moved) == 1
    assert capsys.readouterr().out.endswith(f"\n2 {tail}")


def test_paper_counts_diff_prints_grid_totals(committed):
    queries, rounds = paper_counts.grid_totals(committed)["hybrid"]
    moved = json.loads(json.dumps(committed))
    moved["grid_nd"]["hybrid"]["n16-d1"][1] += 1
    lines = paper_counts.totals_lines(committed, moved)
    assert [line.split("\t")[1] for line in lines] == list(ALGORITHMS)
    assert f"grid total\thybrid\tqueries {queries} -> {queries}, rounds {rounds} -> {rounds + 1}" in lines


def test_paper_counts_diff_prints_hybrid_below_pasmt(committed):
    # hybrid's grid totals at 70 % and 60 % of pasmt's read 30.0 % and 40.0 %
    # below them
    moved = json.loads(json.dumps(committed))
    cells = moved["grid_nd"]
    pasmt = [[100, 1000], [900, 9000]]
    cells["pasmt"] = {f"n{k}-d1": cell for k, cell in enumerate(pasmt)}
    cells["hybrid"] = {"n0-d1": [70, 600], "n1-d1": [630, 5400]}
    want = paper_counts.below_pasmt(committed)
    assert paper_counts.below_pasmt(moved) == [30.0, 40.0]
    assert paper_counts.below_pasmt_line(committed, moved) == (
        f"below pasmt\thybrid\tqueries {want[0]} % -> 30.0 %, rounds {want[1]} % -> 40.0 %"
    )


def test_paper_counts_diff_prints_the_losing_cells(committed):
    # hybrid's (32, 2) total one query past pasmt's makes it a losing cell
    moved = json.loads(json.dumps(committed))
    pasmt_queries = committed["grid_nd"]["pasmt"]["n32-d2"][0]
    moved["grid_nd"]["hybrid"]["n32-d2"][0] = pasmt_queries + 1
    before = paper_counts.losing_cells(committed)
    after = sorted(before + [(32, 2)])
    assert paper_counts.losing_line(committed, moved) == f"losing cells\thybrid\t{before} -> {after}"


def test_criterion_05_binary_splitting_recovery():
    """Splitting search finds every |k| <= 3 support over n = 10 within the
    15-test budget, and 200 randomized weight <= 16 supports over n = 4096
    within budget, in under 30 seconds."""
    start = time.perf_counter()

    def search(k: BitVector, d: int) -> tuple[BitVector, int]:
        # walk the tree with the tests' outcomes against the support k
        tree = GbsaTree(BitVector.ones(k.n).mask, d)
        state, used = tree.start(), 0
        while state.test is not None:
            state = tree.advance(state, 1 if k.mask & state.test else 0)
            used += 1
        return BitVector(k.n, state.found), used

    n, d = 10, 3
    budget = gbsa_test_budget(n, d)
    assert budget == 3 * (math.ceil(math.log2(10 / 3)) + 2) + 3 == 15
    count = 0
    for w in range(d + 1):
        for coords in combinations(range(1, n + 1), w):
            k = BitVector.from_coords(n, coords)
            got, used = search(k, d)
            assert got == k, coords
            assert used <= budget, (coords, used)
            count += 1
    assert count == 176

    n, d = 4096, 16
    budget = gbsa_test_budget(n, d)
    rng = SplitMix64(2024)
    for _ in range(200):
        w = rng.below(d + 1)
        coords = set()
        while len(coords) < w:
            coords.add(1 + rng.below(n))
        k = BitVector.from_coords(n, sorted(coords))
        got, used = search(k, d)
        assert got == k
        assert used <= budget
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"criterion 5 took {elapsed:.1f}s"


def test_criterion_06_disjunct_design_decode():
    """The (64, 2) design certifies 2-disjunct and decodes every support of
    weight <= 2 from its syndrome, in under 60 seconds."""
    start = time.perf_counter()
    n = 64
    H = construct_disjunct(n, 2)
    assert verify_disjunct(H, 2)
    for w in range(3):
        for coords in combinations(range(1, n + 1), w):
            k = BitVector.from_coords(n, coords)
            assert decode_disjunct(H, syndrome(H, k), 2) == k
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"criterion 6 took {elapsed:.1f}s"


def test_criterion_07_query_scaling_shape(scaling_runs):
    """Mean queries over 10 seeds per point: depth-first grows linearly in s
    (factor [0.5, 2]) at (n=256, d=4) and like log2(n/d) (factor [0.5, 2])
    at (s=16, d=4); breadth-first grows superlinearly in d, with
    q(2d)/q(d) >= 1.8 at fixed (n=512, s=16)."""
    recs = scaling_runs["fasmt"]
    assert all(r.exact for r in recs)

    def mean_q(n, s):
        sel = [r for r in recs if r.n == n and r.s_requested == s]
        assert len(sel) == 10
        return sum(r.queries for r in sel) / len(sel)

    base = mean_q(256, 4)
    for s in (8, 16, 32):
        ratio = mean_q(256, s) / (base * s / 4)
        assert 0.5 <= ratio <= 2.0, (s, ratio)

    base = mean_q(64, 16)
    for n in (256, 1024):
        predicted = base * math.log2(n / 4) / math.log2(64 / 4)
        ratio = mean_q(n, 16) / predicted
        assert 0.5 <= ratio <= 2.0, (n, ratio)

    means = scaling_runs["pasmt_means"]
    assert all(r.exact for r in scaling_runs["pasmt"])
    assert means[4] / means[2] >= 1.8, means
    assert means[8] / means[4] >= 1.8, means


def test_criterion_08_optimality_ratio_bounded(scaling_runs):
    """Every depth-first scaling run with s >= 4 lands within a factor 10
    of the information-theoretic floor."""
    checked = 0
    for r in scaling_runs["fasmt"]:
        if r.s_requested < 4:
            continue
        assert r.optimality_ratio is not None, r
        assert r.optimality_ratio <= 10.0, r
        checked += 1
    assert checked == 60


def test_criterion_09_lower_bound_value():
    """lower_bound(1024, 16, 4) equals 512/9 to 1e-12 and matches an
    independent exact re-derivation of s*d*log2(n/d) / (2*log2(s) + 1)."""
    got = lower_bound(1024, 16, 4)
    assert abs(got - 512.0 / 9.0) <= 1e-12

    log_n_over_d = (1024 // 4).bit_length() - 1
    assert 1 << log_n_over_d == 1024 // 4
    log_s = (16).bit_length() - 1
    assert 1 << log_s == 16
    rederived = Fraction(16 * 4 * log_n_over_d, 2 * log_s + 1)
    assert rederived == Fraction(512, 9)
    assert abs(got - rederived) <= 1e-12


def test_criterion_10_deterministic_transcripts():
    """Re-running any algorithm on the same instance with the same seed and
    degree bound reproduces the transcript byte for byte, and benchmark CSV
    rows differ only in runtime_ms."""
    truth = generate_synthetic(24, 5, 2, seed=77)

    def run_once(algorithm):
        sink = io.StringIO()
        got, _ = _run(algorithm, truth, 2, transcript=sink)
        return got, sink.getvalue()

    for algorithm in ("pasmt", "fasmt", "hybrid"):
        first_poly, first_text = run_once(algorithm)
        second_poly, second_text = run_once(algorithm)
        assert first_text == second_text, algorithm
        assert first_poly == second_poly, algorithm
        assert first_text.count("\n") > 0

    cells = [
        GridCell(algorithm, 24, 5, 2, seed)
        for algorithm in ("pasmt", "fasmt", "hybrid")
        for seed in (0, 1)
    ]

    def csv_rows():
        out = io.StringIO()
        write_csv(run_benchmark(cells), out)
        rows = out.getvalue().splitlines()
        header, columns, data = rows[0], rows[1], rows[2:]
        stripped = []
        for line in data:
            parts = line.split(",")
            parts[8] = ""
            stripped.append(",".join(parts))
        return header, columns, stripped

    assert csv_rows() == csv_rows()


def test_criterion_11_cancellation_guardrails(scaled_grid):
    """The subset-sum independence check rejects the {1, 2, -3} value set
    and accepts every all-positive instance used by criteria 1 and 2."""
    bad = SparsePolynomial(
        2,
        {
            BitVector.from01("10"): 1,
            BitVector.from01("01"): 2,
            BitVector.from01("11"): -3,
        },
    )
    assert check_subset_sum_independence(bad) is False

    for truth, _, _ in _small_suite():
        assert all(v > 0 for v in truth.entries.values())
        assert check_subset_sum_independence(truth) is True
    for r in scaled_grid["records"]:
        if r.algorithm != "pasmt":
            continue
        truth = generate_synthetic(r.n, r.s_requested, r.d, r.seed)
        assert all(v > 0 for v in truth.entries.values())
        assert check_subset_sum_independence(truth) is True
