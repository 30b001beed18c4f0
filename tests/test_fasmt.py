from __future__ import annotations

import io

import pytest

from sparsemobius import fasmt
from sparsemobius.core import BitVector, Label
from sparsemobius.errors import DimensionError, ParameterError, ReconstructionError
from sparsemobius.fasmt import depth_first_search, fasmt_run, split_bin
from sparsemobius.grouptest import (
    GbsaTree,
    construct_disjunct,
    construct_list_disjunct,
    gbsa_test_budget,
)
from sparsemobius.harness import generate_synthetic
from sparsemobius.hybrid import hybrid_run
from sparsemobius.oracle import CountingOracle, SparsePolynomial, SparsePolyOracle
from sparsemobius.pasmt import pasmt_run, refine_levels


def bv(text: str) -> BitVector:
    return BitVector.from01(text)


def oracle_for(poly: SparsePolynomial) -> CountingOracle:
    return CountingOracle(SparsePolyOracle(poly))


P = SparsePolynomial(4, {bv("1000"): 2.0, bv("0001"): 3.0})


def test_split_bin_examples():
    f = SparsePolyOracle(P)
    # a query point without coordinates 1, 3, 4 leaves nothing of the support
    x = bv("0100")
    assert split_bin(5.0, x, f.eval(x), []) == (0.0, 5.0, [])
    # one without coordinate 3 keeps both coefficients
    x = bv("1101")
    assert split_bin(5.0, x, f.eval(x), []) == (5.0, 0.0, [])
    # listed values below the point are subtracted from the raw value
    below = (bv("0001").mask, 3.0)
    assert split_bin(5.0, x, f.eval(x), [below]) == (2.0, 3.0, [below])
    # and those not below it are not
    assert split_bin(5.0, x, f.eval(x), [(bv("0010").mask, 3.0)]) == (5.0, 0.0, [])


def test_split_bin_respects_zero_union(monkeypatch):
    # the bucket labelled "0" holds only coefficient 0001: its zero union
    # excludes coordinate 1, so every query point the search makes does too
    monkeypatch.setattr(fasmt, "_probe_tests", lambda free, d: ())  # searched, not probed
    f = oracle_for(P)
    sink = io.StringIO()
    full = bv("1111").mask
    bucket = (Label.from01("0"), 3.0, full ^ bv("1000").mask, ())
    assert depth_first_search(f, [bucket], 2, 1e-9, sink) == {bv("0001"): 3.0}
    lines = [line.split("\t") for line in sink.getvalue().splitlines()]
    # the search ranges over coordinates 2-4, so the first test is the
    # block of coordinates 2 and 3: query point 0001
    assert lines[0] == ["0", "0001", "3.0"]
    assert all(x.startswith("0") for _, x, _ in lines)
    assert len(lines) == f.query_count == f.round_count


def test_recovers_and_counts():
    truth = generate_synthetic(16, 4, 2, seed=40)
    f = oracle_for(truth)
    got = fasmt_run(f, 16, 2)
    assert got.close_to(truth, 1e-9)
    assert got.degree_bound == 2
    # one query per split plus the root, and every query is its own round
    assert f.round_count == f.query_count
    assert f.query_count <= 1 + truth.sparsity * gbsa_test_budget(16, 2)


@pytest.mark.parametrize("n, s, d, seed", [(8, 2, 1, 1), (24, 6, 3, 2), (40, 8, 2, 3), (5, 4, 5, 4)])
def test_exact_across_shapes(n, s, d, seed):
    truth = generate_synthetic(n, s, d, seed=seed)
    f = oracle_for(truth)
    got = fasmt_run(f, n, d)
    assert got.close_to(truth, 1e-9)
    assert f.query_count <= 1 + truth.sparsity * gbsa_test_budget(n, d)


def test_zero_function():
    f = oracle_for(SparsePolynomial(6, {}))
    got = fasmt_run(f, 6, 2)
    assert got.sparsity == 0
    assert f.query_count == 1


def test_zero_sum_bucket_costs_no_query():
    # the bucket's universe is empty; searched anyway, it would report a
    # zero coefficient on the empty support
    f = oracle_for(SparsePolynomial(2, {}))
    full = 0b11
    assert depth_first_search(f, [(Label(0), 0.0, full ^ 0b11, ())], 1, 1e-9) == {}
    assert f.query_count == 0
    # a labelled leaf: the sum is tested before the probe, whose three
    # points would otherwise be asked
    f = oracle_for(SparsePolynomial(8, {}))
    bucket = (Label.from01("1"), 0.0, bv("11100000").mask, ())
    assert depth_first_search(f, [bucket], 2, 1e-9) == {}
    assert f.query_count == 0


def test_constant_function_query_count():
    truth = SparsePolynomial(8, {bv("00000000"): 4.5})
    f = oracle_for(truth)
    got = fasmt_run(f, 8, 2)
    assert got == truth
    # the constant bucket walks one empty partition test per block
    assert f.query_count == 1 + 2


def test_single_coordinate_domain():
    truth = SparsePolynomial(1, {bv("1"): 2.0})
    f = oracle_for(truth)
    assert fasmt_run(f, 1, 1) == truth
    assert f.query_count == 2


@pytest.mark.parametrize("union", [1 << 2, -1])
def test_depth_first_search_rejects_a_union_outside_the_coordinates(union):
    # the engine builds its query points unchecked from the bucket's
    # candidate set, the union's complement, so a union outside the n
    # coordinates, whose complement is outside them too, must not get that far
    f = oracle_for(SparsePolynomial(2, {bv("11"): 1.0}))
    full = 0b11
    # also after leaves the engine starts first: a one-candidate leaf under
    # a 1-outcome, which records its support at once, and a probed leaf,
    # whose walk yields its points; neither may be asked before the bad
    # bucket is checked
    started = [(Label.from01("1"), 1.0, 0b01, ()), (Label.from01("0"), 1.0, full, ())]
    for before in ([], started):
        with pytest.raises(DimensionError, match=f"bucket {len(before)}"):
            depth_first_search(f, [*before, (Label(0), 1.0, full ^ union, ())], 1, 1e-9)
    assert (f.query_count, f.round_count) == (0, 0)


def test_depth_first_search_rejects_a_bad_tau_before_any_query():
    f = oracle_for(SparsePolynomial(10, {bv("1000000000"): 7}))
    leaves = refine_levels(f, construct_disjunct(10, 1), 0.0)
    charged = (f.query_count, f.round_count)
    with pytest.raises(ParameterError, match="tau"):
        depth_first_search(f, leaves, 1, -1.0)
    assert (f.query_count, f.round_count) == charged


def test_integer_mode_zero_tau():
    truth = SparsePolynomial(10, {bv("1000000000"): 7, bv("0000000011"): -2})
    got = fasmt_run(oracle_for(truth), 10, 2, tau=0.0)
    assert got.entries == truth.entries
    assert all(isinstance(v, int) for v in got.entries.values())


def test_transcript_labels_strictly_increase():
    # after the root query, each bucket is split once, in lexicographic order
    for seed in (11, 12, 13):
        truth = generate_synthetic(20, 5, 2, seed=seed)
        sink = io.StringIO()
        fasmt_run(oracle_for(truth), 20, 2, transcript=sink)
        # string order is the same prefix-first lexicographic order
        labels = [line.split("\t")[0] for line in sink.getvalue().splitlines()]
        assert len(labels) > 2
        assert all(a < b for a, b in zip(labels[1:], labels[2:]))


def test_transcript_shape():
    truth = generate_synthetic(12, 3, 2, seed=9)
    sink = io.StringIO()
    f = oracle_for(truth)
    fasmt_run(f, 12, 2, transcript=sink)
    lines = sink.getvalue().splitlines()
    assert len(lines) == f.query_count
    label, x, value = lines[0].split("\t")
    assert label == ""
    assert x == "1" * 12
    assert float(value) == SparsePolyOracle(truth).eval(BitVector.ones(12))
    for line in lines[1:]:
        label, x, value = line.split("\t")
        assert set(label) <= {"0", "1"}
        assert len(x) == 12
        float(value)


def test_transcript_of_a_hand_checked_search():
    # f = 1*x1 + 2*x1x2 at n=4, d=2: blocks 1100 and 0011, then a binary
    # search of 1100 for x1 and a retest of what remains of it
    truth = SparsePolynomial(4, {bv("1000"): 1.0, bv("1100"): 2.0})
    sink = io.StringIO()
    f = oracle_for(truth)
    assert fasmt_run(f, 4, 2, transcript=sink).entries == truth.entries
    assert sink.getvalue().splitlines() == [
        "\t1111\t3.0",
        "\t0011\t0",
        "1\t0111\t0",
        "11\t1011\t1.0",
        "110\t1000\t1.0",
        # the popped 1-child 111 asks 1100, f = 3 there; the 1.0 that its
        # 0-sibling 110 found is subtracted as well
        "111\t1100\t2.0",
    ]
    assert f.query_count == 6


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_transcript_values_are_raw_or_residual(monkeypatch, seed):
    # pasmt and hybrid's phase 1 log f(x).  A search logs the 0-child sum
    # split_bin returned, and a probe the value the engine settled: f(x)
    # minus the coefficients of the leaves below whose supports lie inside x
    sink = io.StringIO()
    zero_sums = {}  # transcript line index -> the 0-child sum logged there
    inner = fasmt.split_bin

    def recorded(*args):
        out = inner(*args)
        # the search writes its line right after split_bin returns
        zero_sums[sink.getvalue().count("\n")] = out[0]
        return out

    monkeypatch.setattr(fasmt, "split_bin", recorded)
    n, d = 32, 2
    truth = generate_synthetic(n, 8, d, seed)
    raw = SparsePolyOracle(truth).eval

    def logged(run) -> list[tuple[str, BitVector, float]]:
        sink.seek(0)
        sink.truncate()
        zero_sums.clear()
        run(oracle_for(truth), sink)
        rows = [line.split("\t") for line in sink.getvalue().splitlines()]
        return [(label, BitVector.from01(x), float(v)) for label, x, v in rows]

    lines = logged(lambda f, sink: pasmt_run(f, construct_disjunct(n, d), d, transcript=sink))
    assert all(v == raw(x) for _, x, v in lines)
    assert zero_sums == {}

    lines = logged(lambda f, sink: fasmt_run(f, n, d, transcript=sink))
    assert lines[0][2] == raw(lines[0][1])
    assert {at: v for at, (_, _, v) in enumerate(lines) if at} == zero_sums
    assert any(v != raw(x) for _, x, v in lines)

    design = construct_list_disjunct(n, d, seed)
    leaves = refine_levels(oracle_for(truth), design, 1e-9)
    index = {label.mask: i for i, (label, *_) in enumerate(leaves)}

    def leaf_of(support: BitVector) -> int:
        # the leaf whose label is the support's outcome on every test
        outcome = sum(1 << t for t, test in enumerate(design.columns) if support.mask & test.mask)
        return index[outcome]

    probe_tests = fasmt._probe_tests
    for probe in (True, False):
        monkeypatch.setattr(fasmt, "_probe_tests", probe_tests if probe else lambda *_: ())
        lines = logged(lambda f, sink: hybrid_run(f, n, d, seed, transcript=sink, design=design))
        probes = settled = 0
        for at, (label, x, v) in enumerate(lines):
            if len(label) < design.b:
                assert v == raw(x) and at not in zero_sums
            elif at in zero_sums:
                assert v == zero_sums[at]
            else:
                below = leaves[index[Label.from01(label).mask]][3]
                lower = [
                    c for k, c in truth.entries.items()
                    if k.mask & ~x.mask == 0 and leaf_of(k) in below
                ]
                assert v == pytest.approx(raw(x) - sum(lower), rel=0, abs=1e-9)
                probes += 1
                settled += bool(lower)
        # the probe covers every labelled leaf, so with it patched out every
        # leaf is searched and gives hybrid's search lines
        assert (settled > 0) == (probes > 0) == probe
        assert probe or zero_sums


def test_degree_overflow_raises():
    truth = SparsePolynomial(8, {bv("11100000"): 1.0})
    with pytest.raises(ReconstructionError) as info:
        fasmt_run(oracle_for(truth), 8, 2)
    assert "degree overflow" in str(info.value)
    assert info.value.label is not None
    assert isinstance(info.value.label, Label)


def test_validation():
    f = oracle_for(P)
    with pytest.raises(DimensionError):
        fasmt_run(f, 5, 1)
    with pytest.raises(ParameterError):
        fasmt_run(f, 4, 0)
    # a bucket waiting on itself or a later bucket would never start, also
    # after a one-candidate leaf and a probed leaf the engine starts first
    full = bv("1111").mask
    started = [(Label.from01("1"), 2.0, bv("1000").mask, ()), (Label.from01("0"), 3.0, full, ())]
    for started in ([], started):
        i = len(started)
        for below in ([i], [i + 1]):
            buckets = [*started, (Label(0), 5.0, full ^ 0, below), (Label(0), 5.0, full ^ 0, ())]
            with pytest.raises(ParameterError, match=f"bucket {i} "):
                depth_first_search(f, buckets, 2, 1e-9)
    assert (f.query_count, f.round_count) == (0, 0)


@pytest.mark.parametrize("n, s, d, seed", [(16, 4, 2, 71), (64, 12, 3, 72)])
def test_every_search_query_calls_split_bin_through_the_module(monkeypatch, n, s, d, seed):
    # the benchmark's traced run times the splitting step by patching this
    # module name, so every search query must look it up at call time
    calls = [0]
    inner = fasmt.split_bin

    def counted(*args):
        calls[0] += 1
        return inner(*args)

    monkeypatch.setattr(fasmt, "split_bin", counted)
    truth = generate_synthetic(n, s, d, seed=seed)
    f = oracle_for(truth)
    fasmt_run(f, n, d)
    assert calls[0] == f.query_count - 1
    design = construct_list_disjunct(n, d, seed)
    phase1 = oracle_for(truth)
    leaves = refine_levels(phase1, design, 1e-9)
    probe_tests = fasmt._probe_tests
    for probe in (True, False):
        monkeypatch.setattr(fasmt, "_probe_tests", probe_tests if probe else lambda *_: ())
        # a probe's points, one per test of its design, are settled by the
        # engine alone
        probe_points = sum(
            construct_disjunct(free.bit_count(), d).b
            for label, value, free, _ in leaves
            if probe and label.n and free and abs(value) > 1e-9
            and not (label.mask and free.bit_count() == 1)
        )
        calls[0] = 0
        f = oracle_for(truth)
        hybrid_run(f, n, d, seed, design=design)
        assert calls[0] == f.query_count - phase1.query_count - probe_points
        assert (probe_points > 0) == probe and calls[0] + probe_points > 0


def test_a_support_decoded_by_two_running_buckets(monkeypatch):
    # neither label lies below the other, and each has a 1.  Where both
    # buckets' zero unions leave coordinate 1 alone, the one true support,
    # the start pass records it with no query; where they leave 1 and 2,
    # both probes find it in one round, and searched, both take three;
    # the second to record the support names its own label
    full = bv("1111").mask
    probe_tests = fasmt._probe_tests
    for union, probe, counts in (
        (bv("0111"), True, (0, 0)),
        (bv("0011"), True, (4, 1)),
        (bv("0011"), False, (6, 3)),
    ):
        buckets = [
            (Label.from01("01"), 2.0, full ^ union.mask, ()),
            (Label.from01("10"), 2.0, full ^ union.mask, ()),
        ]
        monkeypatch.setattr(fasmt, "_probe_tests", probe_tests if probe else lambda *_: ())
        f = oracle_for(SparsePolynomial(4, {bv("1000"): 2.0}))
        with pytest.raises(ReconstructionError, match="decoded twice") as info:
            depth_first_search(f, buckets, 1, 1e-9)
        assert info.value.label.to01().startswith("10")
        assert (f.query_count, f.round_count) == counts


def test_degree_overflow_in_a_shared_round_names_its_bucket(monkeypatch):
    # bucket "10" holds the weight-2 support 1100 and overflows d = 1 in
    # its third query; bucket "01" holds 0001 and is still running then,
    # and its last test, the coordinate its second query ruled out, misses
    # its candidate set and is not asked
    monkeypatch.setattr(fasmt, "_probe_tests", lambda free, d: ())  # searched, not probed
    truth = SparsePolynomial(4, {bv("1100"): 1.0, bv("0001"): 3.0})
    f = oracle_for(truth)
    full = bv("1111").mask
    buckets = [
        (Label.from01("10"), 1.0, full ^ bv("0011").mask, ()),
        (Label.from01("01"), 3.0, full ^ bv("1100").mask, ()),
    ]
    with pytest.raises(ReconstructionError, match="degree overflow") as info:
        depth_first_search(f, buckets, 1, 1e-9)
    assert info.value.label.to01().startswith("10")
    assert f.round_count == 3
    assert f.query_count == 5


def test_a_retested_block_outside_the_candidate_set_is_not_asked():
    # the support 0100 over two blocks, 1100 and 0011: the first block's
    # second query rules coordinate 1 out, so once coordinate 2 is found the
    # block's retest {1} misses the candidate set and its 0-outcome is taken
    # without a query, the fourth test of the tree's walk
    support, d = bv("0100"), 2
    tree = GbsaTree(bv("1111").mask, d)
    state, walked = tree.start(), 0
    while state.test is not None:
        state = tree.advance(state, 1 if support.mask & state.test else 0)
        walked += 1
    assert (walked, state.found) == (4, support.mask)
    truth = SparsePolynomial(4, {support: 5.0})
    f = oracle_for(truth)
    sink = io.StringIO()
    got = depth_first_search(f, [(Label(0), 5.0, bv("1111").mask, ())], d, 1e-9, sink)
    assert got == truth.entries
    assert f.query_count == walked - 1 == 3
    lines = [line.split("\t")[:2] for line in sink.getvalue().splitlines()]
    assert lines == [["", "0011"], ["1", "0111"], ["100", "0100"]]
