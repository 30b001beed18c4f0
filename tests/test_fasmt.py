from __future__ import annotations

import io

import pytest

from sparsemobius.core import BitVector, Label
from sparsemobius.errors import DimensionError, ParameterError, ReconstructionError
from sparsemobius.fasmt import (
    depth_first_search,
    fasmt_run,
    fasmt_run_auto_degree,
    split_bin,
)
from sparsemobius.grouptest import gbsa_test_budget
from sparsemobius.harness import generate_synthetic
from sparsemobius.oracle import CountingOracle, SparsePolynomial, SparsePolyOracle


def bv(text: str) -> BitVector:
    return BitVector.from01(text)


def oracle_for(poly: SparsePolynomial) -> CountingOracle:
    return CountingOracle(SparsePolyOracle(poly))


P = SparsePolynomial(4, {bv("1000"): 2.0, bv("0001"): 3.0})


def test_split_bin_examples():
    f = SparsePolyOracle(P)
    # a query point without coordinates 1, 3, 4 leaves nothing of the support
    x = bv("0100")
    assert split_bin(5.0, x, f.eval(x), {}) == (0.0, 5.0)
    # one without coordinate 3 keeps both coefficients
    x = bv("1101")
    assert split_bin(5.0, x, f.eval(x), {}) == (5.0, 0.0)
    # discovered values below the point are subtracted from the raw value
    assert split_bin(5.0, x, f.eval(x), {bv("0001"): 3.0}) == (2.0, 3.0)
    # and those not below it are not
    assert split_bin(5.0, x, f.eval(x), {bv("0010"): 3.0}) == (5.0, 0.0)


def test_split_bin_respects_zero_union():
    # the bucket labelled "0" holds only coefficient 0001: its zero union
    # excludes coordinate 1, so every query point the search makes does too
    f = oracle_for(P)
    sink = io.StringIO()
    discovered: dict[BitVector, float] = {}
    bucket = (Label.from01("0"), 3.0, bv("1000").mask, BitVector.ones(4).mask)
    depth_first_search(f, [bucket], 2, 1e-9, discovered, sink)
    assert discovered == {bv("0001"): 3.0}
    lines = [line.split("\t") for line in sink.getvalue().splitlines()]
    # the first test is the block of coordinates 1 and 2: query point 0011
    assert lines[0] == ["0", "0011", "3.0"]
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
    truth = generate_synthetic(n, s, min(d, n), seed=seed)
    f = oracle_for(truth)
    got = fasmt_run(f, n, min(d, n))
    assert got.close_to(truth, 1e-9)
    assert f.query_count <= 1 + truth.sparsity * gbsa_test_budget(n, min(d, n))


def test_zero_function():
    f = oracle_for(SparsePolynomial(6, {}))
    got = fasmt_run(f, 6, 2)
    assert got.sparsity == 0
    assert f.query_count == 1


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
        labels = [Label.from01(line.split("\t")[0]) for line in sink.getvalue().splitlines()]
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
    assert float(value) == truth.evaluate(BitVector.ones(12))
    for line in lines[1:]:
        label, x, value = line.split("\t")
        assert set(label) <= {"0", "1"}
        assert len(x) == 12
        float(value)


def test_degree_overflow_raises():
    truth = SparsePolynomial(8, {bv("11100000"): 1.0})
    with pytest.raises(ReconstructionError) as info:
        fasmt_run(oracle_for(truth), 8, 2)
    assert "degree overflow" in str(info.value)
    assert info.value.label is not None


def test_auto_degree_doubles_until_success():
    truth = SparsePolynomial(8, {bv("11100000"): 1.0, bv("00000001"): 2.0})
    f = oracle_for(truth)
    got, bound = fasmt_run_auto_degree(f, 8, 1)
    assert got == truth
    assert bound == 4
    plain = oracle_for(truth)
    fasmt_run(plain, 8, 4)
    assert f.query_count > plain.query_count  # failed attempts stay counted


def test_auto_degree_trivial_case():
    truth = generate_synthetic(9, 3, 2, seed=2)
    got, bound = fasmt_run_auto_degree(oracle_for(truth), 9, 4)
    assert got.close_to(truth, 1e-9)
    assert bound == 4


def test_validation():
    f = oracle_for(P)
    with pytest.raises(DimensionError):
        fasmt_run(f, 5, 1)
    with pytest.raises(ParameterError):
        fasmt_run(f, 4, 0)
