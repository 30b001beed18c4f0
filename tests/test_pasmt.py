from __future__ import annotations

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsemobius.core import (
    BitVector,
    Label,
    TestMatrix,
    build_query_vector,
    syndrome,
)
from sparsemobius.errors import (
    DimensionError,
    ParameterError,
    ReconstructionError,
)
from sparsemobius.grouptest import (
    construct_disjunct,
    construct_list_disjunct,
    decode_disjunct,
    identity_matrix,
    list_decode,
)
from sparsemobius.harness import generate_synthetic, runner_design
from sparsemobius.hybrid import hybrid_run
from sparsemobius.oracle import CountingOracle, SparsePolynomial, SparsePolyOracle
from sparsemobius.pasmt import pasmt_run, refine_levels, solve_bin_system
from sparsemobius.rng import SplitMix64, random_subset

from weights import integer_weights


def bv(text: str) -> BitVector:
    return BitVector.from01(text)


def lab(text: str) -> Label:
    return Label.from01(text)


def oracle_for(poly: SparsePolynomial) -> CountingOracle:
    return CountingOracle(SparsePolyOracle(poly))


def test_solve_bin_system_example():
    # labels 00 < 01 < 10 < 11: 00 lies below every other label, and 11
    # lies above every other label; row i lists the labels below label i
    below = [[], [0], [0], [0, 1, 2]]
    assert solve_bin_system(below, [1, 3, 4, 10]) == [1, 2, 3, 4]


def test_solve_bin_system_partial_chain():
    assert solve_bin_system([[], [0]], [2.0, 5.0]) == [2.0, 3.0]
    assert solve_bin_system([[], []], [2.0, 5.0]) == [2.0, 5.0]
    assert solve_bin_system([], []) == []


def test_solve_bin_system_validation():
    with pytest.raises(DimensionError):
        solve_bin_system([[]], [1.0, 2.0])
    # a list out of order, or naming an index twice
    with pytest.raises(ParameterError):
        solve_bin_system([[], [], [1, 0]], [1.0, 2.0, 3.0])
    with pytest.raises(ParameterError):
        solve_bin_system([[], [], [0, 0]], [1.0, 2.0, 3.0])
    # an index at or after its own row, or before the first
    with pytest.raises(ParameterError):
        solve_bin_system([[0]], [1.0])
    with pytest.raises(ParameterError):
        solve_bin_system([[], [2], []], [1.0, 2.0, 3.0])
    with pytest.raises(ParameterError):
        solve_bin_system([[], [-1]], [1.0, 2.0])


def reference_refine_levels(f, H, tau, transcript):
    """The dense level loop: every label pair tested, every row solved in
    full, and the root asked in level 1's batch."""
    n = f.n
    full = (1 << n) - 1
    ones = BitVector.ones(n)
    first = [BitVector(n, full & ~c.mask) for c in H.columns[:1]]
    root, *level1 = f.batch_eval([ones] + first)
    transcript.write(f"\t{ones.to01()}\t{root!r}\n")
    if abs(root) <= tau:
        for x, m in zip(first, level1):
            transcript.write(f"\t{x.to01()}\t{m!r}\n")
        return [], []
    labels, values, unions = [Label(0)], [root], [0]
    states = [(labels, values)]
    for t, column in enumerate(H.columns):
        col = column.mask
        queries = [BitVector(n, full & ~(u | col)) for u in unions]
        measurements = f.batch_eval(queries) if t else level1
        for ell, x, m in zip(labels, queries, measurements):
            transcript.write(f"{ell.to01()}\t{x.to01()}\t{m!r}\n")
        zero_sums = []
        for i, m in enumerate(measurements):
            acc = m
            for j in range(i):
                if labels[j].mask & ~labels[i].mask == 0:
                    acc -= zero_sums[j]
            zero_sums.append(acc)
        next_labels, next_values, next_unions = [], [], []
        for i, ell in enumerate(labels):
            v0 = zero_sums[i]
            v1 = values[i] - v0
            if abs(v0) > tau:
                next_labels.append(Label(ell.n + 1, ell.mask))
                next_values.append(v0)
                next_unions.append(unions[i] | col)
            if abs(v1) > tau:
                next_labels.append(Label(ell.n + 1, ell.mask | 1 << ell.n))
                next_values.append(v1)
                next_unions.append(unions[i])
        labels, values, unions = next_labels, next_values, next_unions
        states.append((labels, values))
        if not labels:
            break
    return list(zip(labels, values, unions)), states


def level(f, H, t, tau):
    """Labels and sums of the buckets left after the first t columns of H."""
    leaves = refine_levels(f, TestMatrix(H.n, H.columns[:t]), tau)
    return [ell for ell, *_ in leaves], [v for _, v, *_ in leaves]


def leaf_key(leaves):
    return [(ell.to01(), repr(v), u) for ell, v, u, *_ in leaves]


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 24), st.booleans(), st.data())
def test_refine_levels_matches_dense_level_loop(n, integer, data):
    columns = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=10))
    H = TestMatrix(n, [BitVector(n, c) for c in columns])
    supports = data.draw(st.lists(st.integers(0, (1 << n) - 1), unique=True, max_size=12))
    if integer:
        weights = st.integers(-9, 9).filter(bool)
        tau = 0.0
    else:
        weights = st.floats(-4.0, 4.0, allow_nan=False).filter(lambda w: abs(w) > 1e-3)
        tau = 1e-9
    entries = {BitVector(n, k): data.draw(weights) for k in supports}
    truth = SparsePolynomial(n, entries)
    want_out, got_out = io.StringIO(), io.StringIO()
    want_f, got_f = oracle_for(truth), oracle_for(truth)
    want, want_states = reference_refine_levels(want_f, H, tau, want_out)
    got = refine_levels(got_f, H, tau, got_out)
    assert (got_f.query_count, got_f.round_count) == (want_f.query_count, want_f.round_count)
    # the reference keeps each leaf's zero union; a leaf's third field is
    # its complement, the candidate set
    full = (1 << n) - 1
    want = [(ell, v, full ^ union) for ell, v, union in want]
    assert leaf_key(got) == leaf_key(want)
    # each leaf lists every leaf whose label lies below its own, all earlier
    for i, (ell, _, _, below) in enumerate(got):
        assert below == [
            j
            for j, (other, *_) in enumerate(got)
            if j != i and other.mask & ell.mask == other.mask
        ]
        assert all(j < i for j in below)
    assert got_out.getvalue() == want_out.getvalue()
    # level t's buckets are the leaves of a run over the first t columns
    states = [level(oracle_for(truth), H, t, tau) for t in range(len(want_states))]
    assert [(labels, [repr(v) for v in values]) for labels, values in states] == [
        (labels, [repr(v) for v in values]) for labels, values in want_states
    ]


@st.composite
def level_loop_cases(draw):
    """(H, d, truth, tau): an explicit d-disjunct design, a list design or
    an arbitrary column set, mostly not disjunct, with supports of weight up
    to d + 1 and float or exact integer weights."""
    family = draw(st.sampled_from(["disjunct", "list", "arbitrary"]))
    d = draw(st.integers(1, 4))
    if family == "arbitrary":
        n = draw(st.integers(1, 24))
        columns = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=10))
        H = TestMatrix(n, [BitVector(n, c) for c in columns])
    elif family == "disjunct":
        n = draw(st.integers(1, 40))
        H = construct_disjunct(n, d)
    else:
        n = draw(st.integers(1, 40))
        H = construct_list_disjunct(n, d, draw(st.integers(0, 99)))
    supports = draw(st.lists(st.lists(st.integers(0, n - 1), max_size=d + 1), max_size=10))
    if draw(st.booleans()):
        weights = st.integers(-9, 9).filter(bool)
        tau = 0.0
    else:
        weights = st.floats(-4.0, 4.0, allow_nan=False).filter(lambda w: abs(w) > 1e-3)
        tau = 1e-9
    masks = sorted({sum(1 << i for i in set(coords)) for coords in supports})
    truth = SparsePolynomial(n, {BitVector(n, k): draw(weights) for k in masks})
    return H, d, truth, tau


@settings(max_examples=150, deadline=None)
@given(level_loop_cases())
def test_every_level_hands_on_rows_the_checked_solver_accepts(case):
    # the level loop back-substitutes without calling solve_bin_system, so
    # the rows it builds must still meet that solver's precondition
    H, _, truth, tau = case
    for t in range(H.b + 1):
        leaves = refine_levels(oracle_for(truth), TestMatrix(H.n, H.columns[:t]), tau)
        rows = [row for *_, row in leaves]
        for i, row in enumerate(rows):
            assert all(a < b for a, b in zip(row, row[1:]))
            assert all(0 <= j < i for j in row)
        sums = [v for _, v, *_ in leaves]
        assert len(solve_bin_system(rows, sums)) == len(leaves)


@settings(max_examples=150, deadline=None)
@given(level_loop_cases())
def test_leaf_supports_decode_as_decode_disjunct_decodes_the_labels(case):
    # pasmt hands the decoder the support the level loop returns with a
    # leaf, which must be the label's cover decoding
    H, d, truth, tau = case
    for label, _, free, _ in refine_levels(oracle_for(truth), H, tau):
        assert free == build_query_vector(H, label).mask
        assert decode_outcome(H, label, d, free) == decode_outcome(H, label, d)


def decode_outcome(*args):
    try:
        return decode_disjunct(*args)
    except (ReconstructionError, DimensionError) as err:
        return type(err), str(err), getattr(err, "label", None)


def test_recovers_small_instance_identity_matrix():
    truth = SparsePolynomial(4, {bv("0010"): 1.0, bv("1000"): 2.0, bv("1100"): 4.0})
    f = oracle_for(truth)
    got = pasmt_run(f, identity_matrix(4), d=2)
    assert got == truth
    # n rounds, the root sharing level 1's; at most s per level plus the root
    assert (f.query_count, f.round_count) == (10, 4)


def test_zero_function_costs_one_round():
    # level 1's point rides in the root's round, so it is asked even when
    # the root is 0: one query more than the root alone, one round fewer on
    # every other run
    f = oracle_for(SparsePolynomial(4, {}))
    got = pasmt_run(f, identity_matrix(4), d=1)
    assert got.sparsity == 0
    assert f.query_count == 2
    assert f.round_count == 1


def test_level_loop_ends_when_every_bucket_vanishes():
    # each coefficient alone is within tau, so the first level keeps no bucket
    # although the root, 1.2, does not vanish; the second level asks an empty
    # batch, which costs no query, no round and no transcript line
    truth = SparsePolynomial(2, {bv("10"): 0.6, bv("01"): 0.6})
    f = oracle_for(truth)
    sink = io.StringIO()
    assert refine_levels(f, identity_matrix(2), 1.0, sink) == []
    assert (f.query_count, f.round_count) == (2, 1)
    assert len(sink.getvalue().splitlines()) == 2
    assert pasmt_run(oracle_for(truth), identity_matrix(2), d=1, tau=1.0).entries == {}


def test_constant_function():
    truth = SparsePolynomial(5, {bv("00000"): -2.5})
    f = oracle_for(truth)
    assert pasmt_run(f, construct_disjunct(5, 2), d=2) == truth


def test_exact_on_constructed_matrices():
    for n, s, d, seed in [(16, 3, 2, 7), (32, 6, 2, 8), (24, 4, 3, 9), (10, 2, 1, 10)]:
        truth = generate_synthetic(n, s, d, seed=seed)
        H = construct_disjunct(n, d)
        f = oracle_for(truth)
        got = pasmt_run(f, H, d)
        assert got.close_to(truth, 1e-9)
        assert f.query_count <= truth.sparsity * H.b + 1
        assert f.round_count == H.b


def test_integer_instance_with_zero_tau():
    truth = SparsePolynomial(12, {bv("100000000000"): 3, bv("010000000001"): -2})
    H = construct_disjunct(12, 2)
    got = pasmt_run(oracle_for(truth), H, 2, tau=0.0)
    assert got.entries == truth.entries
    assert all(isinstance(v, int) for v in got.entries.values())


def test_round_count_does_not_depend_on_sparsity():
    H = construct_disjunct(32, 2)
    rounds = set()
    for s in (1, 2, 4, 8, 12):
        truth = generate_synthetic(32, s, 2, seed=100 + s)
        f = oracle_for(truth)
        pasmt_run(f, H, 2)
        rounds.add(f.round_count)
    assert rounds == {H.b}


def test_levels_conserve_mass_and_track_true_buckets():
    truth = generate_synthetic(16, 4, 2, seed=21)
    H = construct_disjunct(16, 2)
    total = SparsePolyOracle(truth).eval(BitVector.ones(16))
    for depth in range(H.b + 1):
        labels, values = level(oracle_for(truth), H, depth, 1e-9)
        assert abs(sum(values) - total) < 1e-6
        texts = [ell.to01() for ell in labels]
        assert texts == sorted(texts)
        assert all(ell.n == depth for ell in labels)
        expected = {}
        for k, v in truth.entries.items():
            prefix = Label(depth, syndrome(H, k).mask & ((1 << depth) - 1))
            expected[prefix] = expected.get(prefix, 0.0) + v
        assert set(labels) == set(expected)
        for ell, v in zip(labels, values):
            assert abs(v - expected[ell]) < 1e-6


def test_leaf_unions_match_zero_positions():
    truth = generate_synthetic(12, 3, 2, seed=5)
    H = construct_disjunct(12, 2)
    leaves = refine_levels(oracle_for(truth), H, 1e-9)
    full = (1 << H.n) - 1
    for label, _, free, _ in leaves:
        union = full ^ free
        assert union == full ^ build_query_vector(H, label).mask
    # the depth-first engine searches a hybrid leaf over the coordinates
    # outside its zero union, which are the leaf's list-decoded candidates
    design = construct_list_disjunct(12, 2, seed=5)
    leaves = refine_levels(oracle_for(truth), design, 1e-9)
    assert leaves
    for label, _, free, _ in leaves:
        assert list_decode(design, label) == BitVector(12, free).coords()


def test_transcript_lines_and_determinism():
    truth = generate_synthetic(10, 3, 2, seed=3)
    H = construct_disjunct(10, 2)
    out1, out2 = io.StringIO(), io.StringIO()
    pasmt_run(oracle_for(truth), H, 2, transcript=out1)
    pasmt_run(oracle_for(truth), H, 2, transcript=out2)
    assert out1.getvalue() == out2.getvalue()
    lines = out1.getvalue().splitlines()
    first_label, first_x, first_v = lines[0].split("\t")
    assert first_label == ""
    assert first_x == "1" * 10
    assert float(first_v) == SparsePolyOracle(truth).eval(BitVector.ones(10))
    f = oracle_for(truth)
    pasmt_run(f, H, 2)
    assert len(lines) == f.query_count


def test_non_disjunct_matrix_can_mislearn():
    # tests {3,4}, {1,3}, {1,2} are not 1-disjunct, and the naive decoder
    # maps the bucket of coefficient 1000 and the bucket of 1100 to wrong
    # supports without noticing; disjunctness is what rules this out.
    H = TestMatrix(4, (bv("0011"), bv("1010"), bv("1100")))
    truth = SparsePolynomial(4, {bv("0010"): 1.0, bv("1000"): 2.0, bv("1100"): 4.0})
    got = pasmt_run(oracle_for(truth), H, 2)
    assert got.entries == {bv("0011"): 1.0, bv("1100"): 6.0}


def test_degree_overflow_raises_with_label():
    # the degree-3 coefficient's bucket decodes to a superset of its
    # support, so to a weight above d = 2, and pasmt names that bucket in
    # the degree overflow every runner raises
    deep = BitVector.from_coords(32, (4, 17, 30))
    truth = SparsePolynomial(32, {deep: 1.0, BitVector.from_coords(32, (9,)): 2.0})
    H = construct_disjunct(32, 2)
    with pytest.raises(ReconstructionError) as info:
        pasmt_run(oracle_for(truth), H, 2)
    assert isinstance(info.value.label, Label)
    assert info.value.label == syndrome(H, deep)
    assert str(info.value) == (
        f"degree overflow at bucket {syndrome(H, deep).to01()!r}: "
        "outcomes imply more than d=2 defectives"
    )


def planted_singletons(seed: int) -> SparsePolynomial:
    """generate_synthetic(64, 8, 1, seed) at integer weights, plus a, b and
    -(a + b) (a and b each 1 + below(8)) on three fresh singletons, drawn
    from SplitMix64(10**6 + seed)."""
    n = 64
    entries = dict(integer_weights(generate_synthetic(n, 8, 1, seed)).entries)
    rng = SplitMix64(10**6 + seed)
    a, b = 1 + rng.below(8), 1 + rng.below(8)
    for weight in (a, b, -(a + b)):
        support = BitVector.from_coords(n, random_subset(rng, n, 1))
        while support in entries:
            support = BitVector.from_coords(n, random_subset(rng, n, 1))
        entries[support] = weight
    return SparsePolynomial(n, entries)


def planted_singleton_outcomes(run) -> dict[str, int]:
    """How run(oracle) ends on planted_singletons(seed), seeds 0-399, at
    tau 0: exact map, wrong map or ReconstructionError."""
    outcomes = {"exact": 0, "wrong": 0, "raised": 0}
    for seed in range(400):
        truth = planted_singletons(seed)
        try:
            got = run(oracle_for(truth))
        except ReconstructionError:
            outcomes["raised"] += 1
        else:
            outcomes["exact" if got.entries == truth.entries else "wrong"] += 1
    return outcomes


def test_planted_cancellation_outcomes_at_d1_are_recorded():
    # the planted triple breaks the subset-sum precondition, so pasmt may
    # return a wrong map or raise; the counts are recorded so that a change
    # to the d = 1 design or the level loop shows what it does to them.
    # The per-bit design gave 349 exact / 51 wrong / 0 raised: on the
    # Sperner design 33 of those wrong maps fail the leaf check instead
    H = construct_disjunct(64, 1)
    outcomes = planted_singleton_outcomes(lambda f: pasmt_run(f, H, 1, tau=0.0))
    assert outcomes == {"exact": 347, "wrong": 18, "raised": 35}


def test_hybrid_planted_cancellation_outcomes_at_d1_are_recorded():
    # hybrid runs over the same Sperner design, as its list design at
    # d = 1, but a leaf of several candidates, which pasmt's check refuses
    # as a support of weight above d, is probed or searched instead.  Over
    # its Bernoulli design it gave 380 exact / 15 wrong / 5 raised
    design = runner_design("hybrid", 64, 1)
    outcomes = planted_singleton_outcomes(
        lambda f: hybrid_run(f, 64, 1, design.seed, 0.0, design=design)
    )
    assert outcomes == {"exact": 376, "wrong": 19, "raised": 5}


def test_oracle_dimension_mismatch():
    truth = SparsePolynomial(4, {bv("0010"): 1.0})
    with pytest.raises(DimensionError):
        pasmt_run(oracle_for(truth), identity_matrix(5), 1)
    with pytest.raises(ParameterError):
        pasmt_run(oracle_for(truth), identity_matrix(4), 0)
