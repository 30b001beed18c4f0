from __future__ import annotations

import csv
import io
import math
from collections import Counter
from itertools import combinations
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sparsemobius.core import BitVector
from sparsemobius.errors import FormatError, ParameterError, SparseMobiusError
from sparsemobius.grouptest import construct_disjunct, construct_list_disjunct, identity_matrix
from sparsemobius.harness import (
    ALGORITHMS,
    BenchRecord,
    GridCell,
    generate_synthetic,
    lower_bound,
    optimality_ratio,
    read_grid,
    run_benchmark,
    run_cell,
    runner_design,
    write_csv,
)
from sparsemobius.hybrid import hybrid_run
from sparsemobius.oracle import DEFAULT_TAU, CountingOracle, SparsePolynomial, SparsePolyOracle
from sparsemobius.rng import (
    MAX_RANK,
    PRNG_ID,
    SplitMix64,
    bernoulli_mask,
    random_subset,
    unrank_subset,
)
from weights import integer_weights


def test_splitmix_determinism_and_range():
    a, b = SplitMix64(42), SplitMix64(42)
    first = [a.next64() for _ in range(8)]
    assert first == [b.next64() for _ in range(8)]
    assert all(0 <= u < MAX_RANK for u in first)
    assert len(set(first)) == 8
    assert SplitMix64(43).next64() != first[0]
    assert PRNG_ID == "splitmix64"


def test_splitmix_seed_masking():
    assert SplitMix64(-1).state == SplitMix64(MAX_RANK - 1).state


def test_below_hits_every_residue():
    rng = SplitMix64(7)
    seen = {rng.below(5) for _ in range(200)}
    assert seen == {0, 1, 2, 3, 4}
    assert rng.below(1) == 0
    with pytest.raises(ParameterError):
        rng.below(0)


@pytest.mark.parametrize(
    "seed, bound, first",
    [
        (1, 10, [5, 9, 0, 5]),
        (2, 3**40, [10905525725756348110, 10987583248141275951, 5747796768693156649, 6394052312532759219]),
        (3, 2**64, [2092789425003139053, 12918135221727111561, 11307387092600937729, 1344154044715485647]),
        (4, 2**63 + 1, [7958955049054603978, 9071633986856679582, 7278725300257082041, 8277778672505814866]),
    ],
)
def test_below_keeps_its_draws_up_to_2_64(seed, bound, first):
    # a bound up to 2^64 takes one word per try, so these draws are pinned
    rng = SplitMix64(seed)
    assert [rng.below(bound) for _ in range(4)] == first


def test_below_past_2_64_is_uniform():
    # 3,000 draws below 3 * 2^64: each third of the range about 1,000
    # times, the binomial standard deviation being 26
    bound = 3 << 64
    rng = SplitMix64(11)
    draws = [rng.below(bound) for _ in range(3000)]
    assert all(0 <= u < bound for u in draws)
    counts = Counter(u >> 64 for u in draws)
    assert sorted(counts) == [0, 1, 2]
    assert all(850 <= k <= 1150 for k in counts.values()), counts


def test_uniform_stays_in_range():
    rng = SplitMix64(9)
    draws = [rng.uniform(1.0, 2.0) for _ in range(500)]
    assert all(1.0 <= v < 2.0 for v in draws)
    assert max(draws) - min(draws) > 0.5


def test_unrank_subset_is_lexicographic():
    ranked = [unrank_subset(6, 3, r) for r in range(20)]
    assert ranked == sorted(set(combinations(range(1, 7), 3)))
    assert unrank_subset(5, 0, 0) == ()
    assert unrank_subset(5, 5, 0) == (1, 2, 3, 4, 5)
    with pytest.raises(ParameterError):
        unrank_subset(6, 3, 20)


def linear_walk_unrank(n: int, c: int, rank: int) -> tuple[int, ...]:
    """Reference for unrank_subset: visit 1..n, skipping each coordinate's
    block of subsets that start with it until the rank falls inside one."""
    coords = []
    a = 1
    while len(coords) < c:
        block = comb(n - a, c - len(coords) - 1)
        if rank < block:
            coords.append(a)
        else:
            rank -= block
        a += 1
    return tuple(coords)


@given(st.integers(0, 3000), st.data())
def test_unrank_subset_matches_the_linear_walk(n, data):
    c = data.draw(st.integers(0, min(n, 6)))
    rank = data.draw(st.integers(0, comb(n, c) - 1))
    assert unrank_subset(n, c, rank) == linear_walk_unrank(n, c, rank)


@given(st.integers(1, 4096), st.data())
def test_random_subset_shape(n, data):
    c = data.draw(st.integers(0, min(n, 16)))
    rng = SplitMix64(data.draw(st.integers(0, 2**32)))
    coords = random_subset(rng, n, c)
    assert len(coords) == c
    assert len(set(coords)) == c
    assert coords == tuple(sorted(coords))
    assert all(1 <= v <= n for v in coords)


def test_random_subset_rank_space_guard():
    with pytest.raises(ParameterError):
        random_subset(SplitMix64(0), 4, 5)


def test_random_subset_is_uniform():
    # 10,000 draws of a 2-subset of {1..5}: each of the 10 comes up about
    # 1,000 times, the binomial standard deviation being 30
    rng = SplitMix64(0)
    counts = Counter(random_subset(rng, 5, 2) for _ in range(10_000))
    assert sorted(counts) == list(combinations(range(1, 6), 2))
    assert all(850 <= k <= 1150 for k in counts.values()), counts


def digitwise_bernoulli_mask(rng: SplitMix64, n: int, base: int) -> int:
    """Reference for bernoulli_mask: one digit, one coordinate."""
    k = max(j for j in range(1, 65) if base**j <= MAX_RANK)
    mask = 0
    for start in range(0, n, k):
        r = min(k, n - start)
        u = rng.below(base**r)
        for j in range(r):
            if (u // base**j) % base == 0:
                mask |= 1 << (start + j)
    return mask


@given(st.integers(0, 300), st.integers(2, 9), st.integers(0, 2**64 - 1))
def test_bernoulli_mask_matches_the_digitwise_reference(n, base, seed):
    a, b = SplitMix64(seed), SplitMix64(seed)
    assert bernoulli_mask(a, n, base) == digitwise_bernoulli_mask(b, n, base)
    assert a.state == b.state
    assert bernoulli_mask(a, n, base) < 1 << n


def test_bernoulli_mask_determinism_and_guards():
    masks = [bernoulli_mask(SplitMix64(5), 1000, 3) for _ in range(2)]
    assert masks[0] == masks[1]
    assert bernoulli_mask(SplitMix64(6), 1000, 3) != masks[0]
    assert bernoulli_mask(SplitMix64(5), 0, 3) == 0
    with pytest.raises(ParameterError):
        bernoulli_mask(SplitMix64(5), 8, 1)
    with pytest.raises(ParameterError):
        bernoulli_mask(SplitMix64(5), -1, 2)


@pytest.mark.parametrize("base", [2, 3, 4, 5])
def test_bernoulli_mask_share_of_set_bits(base):
    share = bernoulli_mask(SplitMix64(1), 200_000, base).bit_count() / 200_000
    assert abs(share - 1 / base) <= 0.01 / base


def test_generate_synthetic_determinism():
    a = generate_synthetic(32, 6, 3, seed=5)
    b = generate_synthetic(32, 6, 3, seed=5)
    assert a == b
    assert a != generate_synthetic(32, 6, 3, seed=6)


def test_generate_synthetic_shape():
    poly = generate_synthetic(24, 8, 3, seed=11)
    assert poly.n == 24
    assert poly.sparsity <= 8
    assert poly.degree_bound == 3
    assert all(1 <= k.weight() <= 3 for k in poly.entries)
    assert all(1.0 <= v < 2.0 for v in poly.entries.values())


def test_generate_synthetic_weight_range():
    poly = generate_synthetic(10, 4, 2, seed=3, weight_lo=5.0, weight_hi=6.0)
    assert all(5.0 <= v < 6.0 for v in poly.entries.values())
    with pytest.raises(ParameterError):
        generate_synthetic(10, 4, 2, seed=3, weight_lo=2.0, weight_hi=2.0)


@pytest.mark.parametrize(
    "lo, hi", [(1.0, math.inf), (-math.inf, 2.0), (-1e308, 1e308)], ids=["hi", "lo", "width"]
)
def test_generate_synthetic_rejects_a_range_that_is_not_finite(lo, hi):
    # an infinite end, or a width hi - lo that overflows, would draw a
    # non-finite coefficient; the range is named before any draw
    with pytest.raises(ParameterError, match=r"^weight range \[.*\) is not finite$"):
        generate_synthetic(16, 4, 2, seed=1, weight_lo=lo, weight_hi=hi)


def test_generate_synthetic_draws_from_a_wide_finite_range():
    poly = generate_synthetic(16, 4, 2, seed=1, weight_lo=-1e307, weight_hi=1e307)
    assert all(math.isfinite(v) and -1e307 <= v < 1e307 for v in poly.entries.values())


def test_generate_synthetic_validation():
    with pytest.raises(ParameterError):
        generate_synthetic(0, 1, 1, seed=0)
    with pytest.raises(ParameterError):
        generate_synthetic(8, -1, 2, seed=0)
    with pytest.raises(ParameterError):
        generate_synthetic(8, 2, 0, seed=0)


def test_generate_synthetic_degree_above_n():
    # d > n draws each cardinality from 1..n
    for seed in range(5):
        poly = generate_synthetic(8, 6, 20, seed=seed)
        assert poly.degree_bound == 20
        assert all(1 <= k.weight() <= 8 for k in poly.entries)


def test_generate_synthetic_zero_sparsity():
    poly = generate_synthetic(8, 0, 2, seed=1)
    assert poly.sparsity == 0


def test_lower_bound_value():
    assert abs(lower_bound(1024, 16, 4) - 512 / 9) < 1e-12
    with pytest.raises(ParameterError):
        lower_bound(1024, 1, 4)
    with pytest.raises(ParameterError):
        lower_bound(4, 16, 4)


def test_optimality_ratio_value():
    assert abs(optimality_ratio(1000, 1024, 16, 4) - 7.8125) < 1e-12
    with pytest.raises(ParameterError):
        optimality_ratio(1000, 1024, 1, 4)
    with pytest.raises(ParameterError):
        optimality_ratio(-1, 1024, 16, 4)


def test_run_benchmark_small_grid():
    grid = [
        GridCell("pasmt", 16, 3, 2, 1),
        GridCell("fasmt", 16, 3, 2, 1),
        GridCell("hybrid", 16, 3, 2, 1),
        GridCell("fasmt", 8, 1, 1, 2),
    ]
    records = run_benchmark(grid)
    assert len(records) == 4
    assert all(rec.exact for rec in records)
    assert all(rec.queries >= 1 for rec in records)
    assert all(rec.rounds >= 1 for rec in records)
    assert all(rec.runtime_ms >= 0 for rec in records)
    by_alg = {rec.algorithm: rec for rec in records[:3]}
    assert by_alg["pasmt"].rounds < by_alg["fasmt"].rounds
    last = records[3]
    assert last.s_actual == 1
    assert last.lower_bound is None
    assert last.optimality_ratio is None


def test_run_benchmark_flags_failures():
    # an absurd tolerance prunes every bucket, so recovery comes back empty
    records = run_benchmark([GridCell("fasmt", 12, 5, 2, 0)], tau=10.0)
    assert not records[0].exact
    assert records[0].queries >= 1
    with pytest.raises(ParameterError):
        run_benchmark([GridCell("nope", 8, 2, 1, 0)])


def test_run_benchmark_records_a_failed_run_and_goes_on(monkeypatch):
    calls = []

    def fail_first(algorithm, oracle, d, tau):
        calls.append(algorithm)
        if len(calls) == 1:
            raise SparseMobiusError("no map")
        return run_cell(algorithm, oracle, d, tau)

    monkeypatch.setattr("sparsemobius.harness.run_cell", fail_first)
    records = run_benchmark([GridCell("fasmt", 8, 2, 1, 0), GridCell("pasmt", 8, 2, 1, 0)])
    assert calls == ["fasmt", "pasmt"]
    assert [rec.exact for rec in records] == [False, True]


@pytest.mark.parametrize("tau", [-1.0, math.nan, math.inf])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_runners_reject_a_bad_tau_before_any_query(algorithm, tau):
    # nan and inf zeroed every bucket, -1 kept every bucket alive
    f = CountingOracle(SparsePolyOracle(generate_synthetic(8, 3, 2, 5)))
    with pytest.raises(ParameterError, match="tau"):
        run_cell(algorithm, f, 2, tau)
    assert (f.query_count, f.round_count) == (0, 0)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_runners_take_tau_zero_in_integer_mode(algorithm):
    truth = integer_weights(generate_synthetic(32, 6, 2, 7))
    got = run_cell(algorithm, CountingOracle(SparsePolyOracle(truth)), 2, 0)
    assert got == truth
    assert all(type(v) is int for v in got.entries.values())


def test_run_benchmark_rejects_a_bad_tau_before_any_cell(monkeypatch):
    calls = []
    monkeypatch.setattr("sparsemobius.harness.run_cell", lambda *args: calls.append(args))
    with pytest.raises(ParameterError, match="tau"):
        run_benchmark([GridCell("fasmt", 8, 2, 1, 0)], tau=math.nan)
    assert calls == []


def test_run_cell_rejects_an_unknown_algorithm():
    f = CountingOracle(SparsePolyOracle(SparsePolynomial(4, {})))
    with pytest.raises(ParameterError):
        run_cell("nope", f, 1, DEFAULT_TAU)


def test_runner_design_rules():
    # pasmt: the disjunct design, which is the identity where d >= n
    for n, d in ((1, 1), (8, 8), (64, 2)):
        assert runner_design("pasmt", n, d) == construct_disjunct(n, d)
    assert runner_design("pasmt", 8, 8) == identity_matrix(8)
    assert runner_design("fasmt", 64, 2) is None
    # hybrid's seed is 40000 + 97n + d; perfbench/bench.py build_designs copies it
    for n, d, seed in ((1, 1, 40_098), (8, 8, 40_784), (64, 2, 46_210), (256, 4, 64_836)):
        assert runner_design("hybrid", n, d) == construct_list_disjunct(n, d, seed)
    assert runner_design("hybrid", 1, 1).b == 0


def test_runner_design_is_built_once_per_n_d(monkeypatch):
    built = []

    def counting(n, d, seed):
        built.append((n, d))
        return construct_list_disjunct(n, d, seed)

    monkeypatch.setattr("sparsemobius.harness.construct_list_disjunct", counting)
    runner_design.cache_clear()
    try:
        run_benchmark([GridCell("hybrid", 32, 4, 2, 1), GridCell("hybrid", 32, 4, 2, 2)])
        f = CountingOracle(SparsePolyOracle(generate_synthetic(32, 4, 2, seed=3)))
        run_cell("hybrid", f, 2, DEFAULT_TAU)
    finally:
        runner_design.cache_clear()
    assert built == [(32, 2)]


@pytest.mark.parametrize("algorithm", ["pasmt", "fasmt", "hybrid"])
def test_run_cell_recovers_at_n_4096_d_16(algorithm):
    # each runner builds or searches at (4096, 16) and finds a weight-16
    # support, one of C(4096, 16) > 2^64 (a rank generate_synthetic would
    # draw from more than one 64-bit word)
    n = 4096
    wide = BitVector.from_coords(n, range(1, 17))
    truth = SparsePolynomial(n, {wide: 1.0, BitVector.from_coords(n, [5, 900]): 2.0})
    f = CountingOracle(SparsePolyOracle(truth))
    assert run_cell(algorithm, f, 16, DEFAULT_TAU).close_to(truth)


@pytest.mark.parametrize("algorithm", ["pasmt", "fasmt", "hybrid"])
@pytest.mark.parametrize("n, s, d", [(32, 4, 3), (8, 6, 20)])
def test_run_cell_recovers_and_carries_the_degree_bound(algorithm, n, s, d):
    for seed in range(3):
        truth = generate_synthetic(n, s, d, seed=seed)
        got = run_cell(algorithm, CountingOracle(SparsePolyOracle(truth)), d, DEFAULT_TAU)
        assert got.close_to(truth, 1e-9)
        assert got.degree_bound == d


def test_hybrid_bench_rows_run_over_the_registry_design():
    cells = [GridCell("hybrid", 64, 6, 3, seed) for seed in (1, 2, 3)]
    design = runner_design("hybrid", 64, 3)
    for cell, rec in zip(cells, run_benchmark(cells)):
        f = CountingOracle(SparsePolyOracle(generate_synthetic(64, 6, 3, cell.seed)))
        hybrid_run(f, 64, 3, design.seed, design=design)
        assert (rec.queries, rec.rounds) == (f.query_count, f.round_count)


def csv_rows(text: str) -> list[dict[str, str]]:
    """The records of a benchmark CSV, as rows of text cells."""
    return list(csv.DictReader(text.splitlines()[1:]))


def record_cells(rec: BenchRecord) -> dict[str, str]:
    """The text cells write_csv writes for a record, in column order."""
    row = {name: "" if v is None else str(v) for name, v in vars(rec).items()}
    row["exact"] = "true" if rec.exact else "false"
    return row


def test_csv_round_trip(tmp_path):
    grid = [GridCell("fasmt", 16, 3, 2, 1), GridCell("pasmt", 8, 1, 1, 2)]
    records = run_benchmark(grid)
    path = tmp_path / "bench.csv"
    write_csv(records, path)
    text = path.read_text()
    assert text.startswith(f"# prng={PRNG_ID}\n")
    assert text.splitlines()[1] == ",".join(record_cells(records[0]))
    rows = csv_rows(text)
    assert rows == [record_cells(rec) for rec in records]
    # floats are written with repr, so they read back exactly
    assert [float(row["runtime_ms"]) for row in rows] == [r.runtime_ms for r in records]


def test_read_grid():
    text = "# comment\npasmt 16 3 2 1\nfasmt 8 2 1 5 # inline\n\n"
    cells = read_grid(io.StringIO(text))
    assert cells == [GridCell("pasmt", 16, 3, 2, 1), GridCell("fasmt", 8, 2, 1, 5)]
    with pytest.raises(FormatError):
        read_grid(io.StringIO("pasmt 16 3 2\n"))
    with pytest.raises(FormatError):
        read_grid(io.StringIO("magic 16 3 2 1\n"))
    with pytest.raises(FormatError):
        read_grid(io.StringIO("pasmt 16 x 2 1\n"))
    # int() reads both of these as 16; the grid takes plain ASCII numerals
    # only, as the instance readers do, and names the line
    for token in ("1_6", "\u0661\u0666"):
        with pytest.raises(FormatError, match="plain ASCII integers") as info:
            read_grid(io.StringIO(f"# comment\npasmt {token} 1 1 0\n"))
        assert info.value.line == 2


def test_read_grid_names_a_numeral_past_the_digit_limit():
    with pytest.raises(FormatError, match="5001 digits is past the .*-digit limit") as info:
        read_grid(io.StringIO(f"fasmt 8 2 1 1\nhybrid 8 2 1 {'9' * 5001}\n"))
    assert info.value.line == 2


def test_bench_record_none_bounds_round_trip():
    rec = BenchRecord(
        algorithm="fasmt",
        n=4,
        s_requested=1,
        s_actual=1,
        d=1,
        seed=0,
        queries=3,
        rounds=3,
        runtime_ms=0.25,
        exact=True,
        lower_bound=None,
        optimality_ratio=None,
    )
    buf = io.StringIO()
    write_csv([rec], buf)
    rows = csv_rows(buf.getvalue())
    assert rows == [record_cells(rec)]
    assert rows[0]["lower_bound"] == rows[0]["optimality_ratio"] == ""
