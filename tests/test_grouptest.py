from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsemobius.core import BitVector, Label, TestMatrix, semiring_apply
from sparsemobius.errors import (
    CapacityError,
    DecodeError,
    DimensionError,
    InfeasiblePrefixError,
    ParameterError,
)
from sparsemobius.grouptest import (
    GbsaResult,
    GbsaTest,
    GbsaTree,
    construct_disjunct,
    construct_list_disjunct,
    decode_disjunct,
    gbsa_run,
    gbsa_step,
    gbsa_test_budget,
    identity_matrix,
    list_decode,
    verify_disjunct,
)


def bv(text: str) -> BitVector:
    return BitVector.from01(text)


def lab(text: str) -> Label:
    return Label.from01(text)


def membership(k: BitVector):
    """Tester reporting whether the test vector intersects k."""

    def probe(x: BitVector) -> int:
        return 1 if x.mask & k.mask else 0

    return probe


def syndrome(H: TestMatrix, k: BitVector) -> Label:
    flags = semiring_apply(H, k, transpose=True)
    return Label.from_bits(flags.bit(t + 1) for t in range(H.b))


# Tests h1 = {3,4}, h2 = {1,3}, h3 = {1,2}: not 1-disjunct (the tests
# containing coordinate 2 all contain coordinate 1 as well).
H_FIG = TestMatrix(4, (bv("0011"), bv("1010"), bv("1100")))


def test_budget_values():
    assert gbsa_test_budget(10, 3) == 15
    assert gbsa_test_budget(4, 1) == 1 * (2 + 2) + 1
    assert gbsa_test_budget(3, 3) == 3
    assert gbsa_test_budget(2, 5) == 2
    assert gbsa_test_budget(0, 1) == 0
    with pytest.raises(ParameterError):
        gbsa_test_budget(4, 0)


def test_step_first_action_is_first_block():
    action = gbsa_step(Label.empty(), 8, 2)
    assert action == GbsaTest(bv("11110000"))


def test_step_all_blocks_negative():
    action = gbsa_step(lab("00"), 8, 2)
    assert action == GbsaResult(bv("00000000"))


def test_step_positive_block_splits():
    action = gbsa_step(lab("1"), 4, 1)
    assert action == GbsaTest(bv("1100"))


def test_step_full_trace():
    # positive block, left half clean, coordinate 3 isolated, rest clean
    action = gbsa_step(lab("1010"), 4, 1)
    assert action == GbsaResult(bv("0010"))
    found, used = gbsa_run(membership(bv("0010")), 4, 1)
    assert found == bv("0010")
    assert used == 4


def test_step_replay_is_deterministic():
    first = gbsa_step(lab("10"), 8, 2)
    again = gbsa_step(lab("10"), 8, 2)
    assert first == again


def test_step_infeasible_prefixes():
    # two isolated defectives contradict d = 1
    with pytest.raises(InfeasiblePrefixError):
        gbsa_step(lab("111111"), 4, 1)
    # outcomes past the end of the decision tree
    with pytest.raises(InfeasiblePrefixError):
        gbsa_step(lab("00"), 4, 1)
    with pytest.raises(InfeasiblePrefixError):
        gbsa_step(lab("0"), 0, 1)
    with pytest.raises(ParameterError):
        gbsa_step(Label.empty(), 4, 0)
    with pytest.raises(ParameterError):
        GbsaTree(0b101, 0)


def test_run_empty_domain():
    found, used = gbsa_run(membership(BitVector.zeros(0)), 0, 1)
    assert found == BitVector.zeros(0)
    assert used == 0


def test_run_recovers_every_small_support():
    for n in range(1, 9):
        for d in (1, 2, 3):
            budget = gbsa_test_budget(n, d)
            for w in range(0, d + 1):
                for coords in combinations(range(1, n + 1), w):
                    k = BitVector.from_coords(n, coords)
                    found, used = gbsa_run(membership(k), n, d)
                    assert found == k
                    assert used <= budget


def test_run_matches_step_replay():
    # the stepwise replay must retrace exactly the tests the run issued
    k = bv("0100100010")
    n, d = 10, 3
    probe = membership(k)
    label = Label.empty()
    while True:
        action = gbsa_step(label, n, d)
        if isinstance(action, GbsaResult):
            assert action.vector == k
            break
        label = label.append(probe(action.vector))
    found, used = gbsa_run(probe, n, d)
    assert found == k
    assert used == label.length


@settings(max_examples=150)
@given(st.integers(1, 120), st.integers(1, 6), st.data())
def test_run_random_supports(n, d, data):
    coords = data.draw(
        st.lists(st.integers(1, n), unique=True, max_size=min(d, n))
    )
    k = BitVector.from_coords(n, coords)
    found, used = gbsa_run(membership(k), n, d)
    assert found == k
    assert used <= gbsa_test_budget(n, d)


@settings(max_examples=150)
@given(st.integers(1, 80), st.integers(1, 6), st.data())
def test_tree_over_a_universe_walks_the_tree_over_its_coordinates(n, d, data):
    # a universe of m scattered coordinates behaves as 1..m relabelled
    coords = sorted(data.draw(st.lists(st.integers(0, n - 1), unique=True)))
    m = len(coords)
    outcomes = data.draw(st.lists(st.integers(0, 1), max_size=gbsa_test_budget(m, d)))
    tree = GbsaTree(sum(1 << c for c in coords), d)
    state = tree.start()
    label = Label.empty()
    for bit in outcomes:
        action = gbsa_step(label, m, d)
        expected = sum(1 << coords[i - 1] for i in action.vector.coords())
        if state.test is None:
            assert action == GbsaResult(action.vector)
            assert state.found == expected
            return
        assert action == GbsaTest(action.vector)
        assert state.test == expected
        label = label.append(bit)
        try:
            state = tree.advance(state, bit)
        except InfeasiblePrefixError:
            with pytest.raises(InfeasiblePrefixError):
                gbsa_step(label, m, d)
            return


def test_identity_matrix():
    eye = identity_matrix(3)
    assert eye.b == 3
    assert eye.columns == (bv("100"), bv("010"), bv("001"))
    assert verify_disjunct(eye, 1)
    assert verify_disjunct(eye, 2)


def test_verify_disjunct_rejects():
    assert not verify_disjunct(H_FIG, 1)
    missing = TestMatrix(3, (bv("110"),))
    assert not verify_disjunct(missing, 1)
    with pytest.raises(CapacityError):
        verify_disjunct(identity_matrix(200), 4)
    with pytest.raises(ParameterError):
        verify_disjunct(identity_matrix(4), 0)


def test_construct_disjunct_params():
    with pytest.raises(ParameterError):
        construct_disjunct(1, 1)
    with pytest.raises(ParameterError):
        construct_disjunct(8, 0)
    with pytest.raises(ParameterError):
        construct_disjunct(8, 8)


def test_construct_disjunct_degenerate_is_identity():
    assert construct_disjunct(5, 4) == identity_matrix(5)
    assert construct_disjunct(3, 2) == identity_matrix(3)


def test_construct_disjunct_bit_tests_for_d1():
    H = construct_disjunct(64, 1)
    assert H.b == 12  # set and clear tests per address bit
    assert verify_disjunct(H, 1)


def test_construct_disjunct_rs_design():
    H = construct_disjunct(64, 2)
    assert H.b == 25
    assert verify_disjunct(H, 2)


@pytest.mark.parametrize("n, d", [(10, 2), (20, 3), (40, 2), (100, 2)])
def test_construct_disjunct_always_verifies(n, d):
    H = construct_disjunct(n, d)
    assert H.b <= n
    assert verify_disjunct(H, d)


def test_construct_disjunct_deterministic():
    assert construct_disjunct(64, 2) == construct_disjunct(64, 2)


def test_decode_disjunct_examples():
    assert decode_disjunct(H_FIG, lab("110"), 1) == bv("0011")
    with pytest.raises(DecodeError):
        decode_disjunct(H_FIG, lab("010"), 1)
    with pytest.raises(DimensionError):
        decode_disjunct(H_FIG, lab("11"), 1)


def test_decode_disjunct_round_trip():
    H = construct_disjunct(20, 2)
    for w in (0, 1, 2):
        for coords in combinations(range(1, 21), w):
            k = BitVector.from_coords(20, coords)
            assert decode_disjunct(H, syndrome(H, k), 2) == k


def test_list_design_determinism():
    a = construct_list_disjunct(32, 3, seed=11)
    b = construct_list_disjunct(32, 3, seed=11)
    assert a.matrix == b.matrix
    assert a.list_bound == b.list_bound
    c = construct_list_disjunct(32, 3, seed=12)
    assert c.matrix != a.matrix


def test_list_design_shape():
    design = construct_list_disjunct(32, 3, seed=11)
    assert design.n == 32
    assert design.b == 60  # ceil(4 * 3 * log2(32))
    assert design.list_bound >= 1
    with pytest.raises(ParameterError):
        construct_list_disjunct(1, 1, seed=0)
    with pytest.raises(ParameterError):
        construct_list_disjunct(8, 8, seed=0)
    with pytest.raises(ParameterError):
        construct_list_disjunct(8, 2, seed=0, columns_factor=0.0)


@settings(max_examples=60)
@given(st.integers(2, 64), st.integers(0, 2**32), st.data())
def test_list_decode_is_sound(n, seed, data):
    d = data.draw(st.integers(1, min(4, n - 1)))
    design = construct_list_disjunct(n, d, seed, audit_trials=8)
    coords = data.draw(
        st.lists(st.integers(1, n), unique=True, max_size=d)
    )
    k = BitVector.from_coords(n, coords)
    candidates = list_decode(design, syndrome(design.matrix, k))
    assert set(coords).issubset(candidates)
    assert candidates == tuple(sorted(candidates))


def test_list_decode_dimension_check():
    design = construct_list_disjunct(8, 2, seed=3)
    with pytest.raises(DimensionError):
        list_decode(design, Label.empty())
