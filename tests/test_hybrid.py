from __future__ import annotations

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsemobius.core import BitVector, Label, syndrome
from sparsemobius.errors import DimensionError, ParameterError, ReconstructionError
from sparsemobius.fasmt import fasmt_run
from sparsemobius.grouptest import construct_list_disjunct
from sparsemobius.harness import generate_synthetic
from sparsemobius.hybrid import hybrid_run
from sparsemobius.oracle import CountingOracle, SparsePolynomial, SparsePolyOracle

from envelope import hybrid_envelope
from reference_engine import LocalizedBin, antichain_layers


def bv(text: str) -> BitVector:
    return BitVector.from01(text)


def oracle_for(poly: SparsePolynomial) -> CountingOracle:
    return CountingOracle(SparsePolyOracle(poly))


def test_antichain_layers():
    def bin_at(text):
        return LocalizedBin(Label.from01(text), 1.0, (), 0)

    bins = [bin_at(t) for t in ("11", "00", "01", "10")]
    layers = antichain_layers(bins)
    assert [[b.label.to01() for b in layer] for layer in layers] == [
        ["00"],
        ["01", "10"],
        ["11"],
    ]
    for layer in layers:
        for a in layer:
            for b in layer:
                if a is not b:
                    assert a.label.mask & b.label.mask != a.label.mask
    assert antichain_layers([]) == []


def peeled_layers(bins):
    """Repeated removal of the minimal bins, the definition of the layers."""
    layers, remaining = [], list(bins)
    while remaining:
        layer = [
            b for b in remaining
            if not any(
                o.label != b.label and o.label.mask & b.label.mask == o.label.mask
                for o in remaining
            )
        ]
        taken = {b.label for b in layer}
        remaining = [b for b in remaining if b.label not in taken]
        layers.append(layer)
    return layers


@settings(max_examples=150)
@given(st.integers(0, 7), st.data())
def test_antichain_layers_match_repeated_peeling(length, data):
    masks = data.draw(st.lists(st.integers(0, (1 << length) - 1), max_size=20))
    bins = [LocalizedBin(Label(length, m), float(i), (), 0) for i, m in enumerate(masks)]
    assert antichain_layers(bins) == peeled_layers(bins)


@pytest.mark.parametrize(
    "n, s, d, seed",
    [(12, 4, 3, 77), (20, 5, 2, 78), (32, 8, 2, 79), (6, 3, 2, 80), (5, 3, 5, 81)],
)
def test_exact_across_shapes(n, s, d, seed):
    truth = generate_synthetic(n, s, d, seed=seed)
    f = oracle_for(truth)
    got = hybrid_run(f, n, d, seed=seed)
    assert got.close_to(truth, 1e-9)
    assert got.degree_bound == d


def test_round_and_query_envelope():
    # test_acceptance checks the same envelope on every grid run
    n, d, seed = 24, 2, 5
    truth = generate_synthetic(n, 6, d, seed=seed)
    design = construct_list_disjunct(n, d, seed)
    queries, rounds = hybrid_envelope(truth, design, d)
    f = oracle_for(truth)
    got = hybrid_run(f, n, d, seed=seed, design=design)
    assert got.close_to(truth, 1e-9)
    assert f.query_count <= queries
    assert f.round_count <= rounds


def test_reruns_are_transcript_identical():
    truth = generate_synthetic(14, 4, 2, seed=30)
    a, b = io.StringIO(), io.StringIO()
    hybrid_run(oracle_for(truth), 14, 2, seed=9, transcript=a)
    hybrid_run(oracle_for(truth), 14, 2, seed=9, transcript=b)
    assert a.getvalue() == b.getvalue()
    first = a.getvalue().splitlines()[0].split("\t")
    assert first[0] == ""
    assert first[1] == "1" * 14


def test_zero_function_costs_one_round():
    # the root and level 1's point share one batch (pasmt.refine_levels)
    f = oracle_for(SparsePolynomial(9, {}))
    got = hybrid_run(f, 9, 2, seed=1)
    assert got.sparsity == 0
    assert f.query_count == 2
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


def test_runs_as_fasmt_where_n_is_at_most_2d():
    # the design has no tests, so phase 1 is the root query and phase 2
    # one search over all n coordinates
    for n in range(1, 17):
        for d in range((n + 1) // 2, n + 3):
            for seed in range(2):
                truth = generate_synthetic(n, 4, d, seed=seed)
                runs = []
                for run in (
                    lambda f, sink: hybrid_run(f, n, d, seed=seed, transcript=sink),
                    lambda f, sink: fasmt_run(f, n, d, transcript=sink),
                ):
                    f, sink = oracle_for(truth), io.StringIO()
                    got = run(f, sink)
                    runs.append((got.entries, f.query_count, f.round_count, sink.getvalue()))
                assert runs[0] == runs[1], (n, d, seed)


def test_integer_mode_zero_tau():
    truth = SparsePolynomial(12, {bv("110000000000"): 5, bv("000000000011"): -3})
    got = hybrid_run(oracle_for(truth), 12, 2, seed=4, tau=0.0)
    assert got.entries == truth.entries
    assert all(isinstance(v, int) for v in got.entries.values())


def test_oversized_candidate_set_is_searched():
    truth = generate_synthetic(12, 4, 3, seed=77)
    design = construct_list_disjunct(12, 3, seed=5)
    # every leaf is priced over its whole candidate set
    f = oracle_for(truth)
    got = hybrid_run(f, 12, 3, seed=999, design=design)
    assert got.close_to(truth, 1e-9)
    assert f.query_count <= hybrid_envelope(truth, design, 3)[0]


def test_degree_overflow_raises_with_label():
    truth = SparsePolynomial(10, {bv("1110000000"): 1.0})
    design = construct_list_disjunct(10, 2, seed=8)
    f = oracle_for(truth)
    with pytest.raises(ReconstructionError) as info:
        hybrid_run(f, 10, 2, seed=8, design=design)
    assert "degree overflow" in str(info.value)
    # the bucket is probed, and the probe names its leaf: the support's
    # phase-1 syndrome
    assert isinstance(info.value.label, Label)
    assert info.value.label == syndrome(design, bv("1110000000"))
    assert f.query_count <= hybrid_envelope(truth, design, 2)[0]


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


def test_an_n_that_oracle_and_design_both_miss_is_refused_before_any_query():
    # the level loop checks the design against the oracle only, so the
    # runner checks n against the oracle itself
    f = oracle_for(SparsePolynomial(4, {bv("1000"): 1.0}))
    design = construct_list_disjunct(4, 1, seed=0)
    with pytest.raises(DimensionError):
        hybrid_run(f, 5, 1, seed=0, design=design)
    assert f.query_count == 0
