from __future__ import annotations

import io
import logging

import pytest

from sparsemobius.core import BitVector, Label
from sparsemobius.errors import DimensionError, ParameterError, ReconstructionError
from sparsemobius.grouptest import ListDesign, construct_list_disjunct, gbsa_test_budget
from sparsemobius.harness import generate_synthetic
from sparsemobius.hybrid import LocalizedBin, _antichain_layers, hybrid_run
from sparsemobius.oracle import CountingOracle, SparsePolynomial, SparsePolyOracle


def bv(text: str) -> BitVector:
    return BitVector.from01(text)


def oracle_for(poly: SparsePolynomial) -> CountingOracle:
    return CountingOracle(SparsePolyOracle(poly))


def test_antichain_layers():
    def bin_at(text):
        return LocalizedBin(Label.from01(text), 1.0, (), 0)

    bins = [bin_at(t) for t in ("11", "00", "01", "10")]
    layers = _antichain_layers(bins)
    assert [[b.label.to01() for b in layer] for layer in layers] == [
        ["00"],
        ["01", "10"],
        ["11"],
    ]
    for layer in layers:
        for a in layer:
            for b in layer:
                if a is not b:
                    assert not a.label.leq(b.label)
    assert _antichain_layers([]) == []


@pytest.mark.parametrize(
    "n, s, d, seed",
    [(12, 4, 3, 77), (20, 5, 2, 78), (32, 8, 2, 79), (6, 3, 2, 80), (5, 3, 5, 81)],
)
def test_exact_across_shapes(n, s, d, seed):
    truth = generate_synthetic(n, s, min(d, n), seed=seed)
    f = oracle_for(truth)
    got = hybrid_run(f, n, min(d, n), seed=seed)
    assert got.close_to(truth, 1e-9)
    assert got.degree_bound == min(d, n)


def test_round_and_query_envelope():
    n, d, seed = 24, 2, 5
    truth = generate_synthetic(n, 6, d, seed=seed)
    s = truth.sparsity
    design = construct_list_disjunct(n, min(d, n - 1), seed)
    per_bin = max(
        gbsa_test_budget(m, min(d, m)) for m in range(1, design.list_bound + 1)
    )
    f = oracle_for(truth)
    got = hybrid_run(f, n, d, seed=seed, design=design)
    assert got.close_to(truth, 1e-9)
    assert f.query_count <= 1 + s * design.b + s * per_bin
    assert f.round_count <= 1 + design.b + s * per_bin


def test_reruns_are_transcript_identical():
    truth = generate_synthetic(14, 4, 2, seed=30)
    a, b = io.StringIO(), io.StringIO()
    hybrid_run(oracle_for(truth), 14, 2, seed=9, transcript=a)
    hybrid_run(oracle_for(truth), 14, 2, seed=9, transcript=b)
    assert a.getvalue() == b.getvalue()
    first = a.getvalue().splitlines()[0].split("\t")
    assert first[0] == ""
    assert first[1] == "1" * 14


def test_zero_function_costs_one_query():
    f = oracle_for(SparsePolynomial(9, {}))
    got = hybrid_run(f, 9, 2, seed=1)
    assert got.sparsity == 0
    assert f.query_count == 1
    assert f.round_count == 1


def test_constant_function():
    truth = SparsePolynomial(7, {bv("0000000"): 3.0})
    got = hybrid_run(oracle_for(truth), 7, 2, seed=2)
    assert got == truth


def test_single_coordinate_domain():
    for entries in ({bv("1"): 2.5}, {bv("0"): -1.0}, {}):
        truth = SparsePolynomial(1, entries)
        f = oracle_for(truth)
        got = hybrid_run(f, 1, 1, seed=3)
        assert got == truth


def test_integer_mode_zero_tau():
    truth = SparsePolynomial(12, {bv("110000000000"): 5, bv("000000000011"): -3})
    got = hybrid_run(oracle_for(truth), 12, 2, seed=4, tau=0.0)
    assert got.entries == truth.entries
    assert all(isinstance(v, int) for v in got.entries.values())


def test_oversized_candidate_set_falls_back(caplog):
    truth = generate_synthetic(12, 4, 3, seed=77)
    design = construct_list_disjunct(12, 3, seed=5)
    doctored = ListDesign(
        matrix=design.matrix,
        d=design.d,
        list_bound=0,
        seed=design.seed,
        audit_trials=design.audit_trials,
    )
    f = oracle_for(truth)
    with caplog.at_level(logging.WARNING, logger="sparsemobius.hybrid"):
        got = hybrid_run(f, 12, 3, seed=999, design=doctored)
    assert got.close_to(truth, 1e-9)
    assert any("falling back" in rec.message for rec in caplog.records)


def test_degree_overflow_raises_with_label(caplog):
    truth = SparsePolynomial(10, {bv("1110000000"): 1.0})
    design = construct_list_disjunct(10, 2, seed=8)
    f = oracle_for(truth)
    with caplog.at_level(logging.WARNING, logger="sparsemobius.hybrid"):
        with pytest.raises(ReconstructionError) as info:
            hybrid_run(f, 10, 2, seed=8, design=design)
    assert "degree overflow" in str(info.value)
    # the label extends the bucket's full phase-1 syndrome
    assert info.value.label.length > design.b
    assert not any("falling back" in rec.message for rec in caplog.records)
    assert f.query_count <= 1 + design.b + gbsa_test_budget(10, 2)


def test_prebuilt_design_reused():
    truth = generate_synthetic(18, 4, 2, seed=44)
    design = construct_list_disjunct(18, 2, seed=13)
    a = hybrid_run(oracle_for(truth), 18, 2, seed=0, design=design)
    b = hybrid_run(oracle_for(truth), 18, 2, seed=1, design=design)
    assert a == b
    assert a.close_to(truth, 1e-9)


def test_validation():
    f = oracle_for(SparsePolynomial(4, {}))
    with pytest.raises(DimensionError):
        hybrid_run(f, 5, 1, seed=0)
    with pytest.raises(ParameterError):
        hybrid_run(f, 4, 0, seed=0)
    wrong = construct_list_disjunct(6, 2, seed=0)
    with pytest.raises(DimensionError):
        hybrid_run(f, 4, 2, seed=0, design=wrong)
