from __future__ import annotations

import math
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsemobius.core import BitVector, Label, TestMatrix, syndrome
from sparsemobius.errors import (
    CapacityError,
    DimensionError,
    InfeasiblePrefixError,
    ParameterError,
    ReconstructionError,
)
from sparsemobius.grouptest import (
    GbsaTree,
    ListDesign,
    construct_disjunct,
    construct_list_disjunct,
    decode_disjunct,
    gbsa_step,
    gbsa_test_budget,
    identity_matrix,
    list_decode,
    list_design_width,
    _gf_modulus,
    _gf_tables,
    _lowest,
    _prime_power,
    _rs_concat,
)

import reference_decode
from disjunct import verify_disjunct


def bv(text: str) -> BitVector:
    return BitVector.from01(text)


def lab(text: str) -> Label:
    return Label.from01(text)


def membership(k: BitVector):
    """Tester reporting whether the test vector intersects k."""

    def probe(x: BitVector) -> int:
        return 1 if x.mask & k.mask else 0

    return probe


def walk_tree(probe, n: int, d: int) -> tuple[BitVector, int]:
    """Drive the splitting tree over coordinates 1..n against a tester;
    returns the defective set and the number of tests used."""
    tree = GbsaTree((1 << n) - 1, d)
    state, used = tree.start(), 0
    while state.test is not None:
        state = tree.advance(state, probe(BitVector(n, state.test)))
        used += 1
    return BitVector(n, state.found), used


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
    state = gbsa_step(Label(0), 8, 2)
    assert state.test == bv("11110000").mask


def test_step_all_blocks_negative():
    state = gbsa_step(lab("00"), 8, 2)
    assert state.test is None
    assert state.found == 0


def test_step_positive_block_splits():
    state = gbsa_step(lab("1"), 4, 1)
    assert state.test == bv("1100").mask


def test_step_full_trace():
    # positive block, left half clean, coordinate 3 isolated, rest clean
    state = gbsa_step(lab("1010"), 4, 1)
    assert state.test is None
    assert state.found == bv("0010").mask
    found, used = walk_tree(membership(bv("0010")), 4, 1)
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
        gbsa_step(Label(0), 4, 0)
    with pytest.raises(ParameterError):
        GbsaTree(0b101, 0)


def test_run_empty_domain():
    found, used = walk_tree(membership(BitVector(0)), 0, 1)
    assert found == BitVector(0)
    assert used == 0


def test_run_recovers_every_small_support():
    for n in range(1, 9):
        for d in (1, 2, 3):
            budget = gbsa_test_budget(n, d)
            for w in range(0, d + 1):
                for coords in combinations(range(1, n + 1), w):
                    k = BitVector.from_coords(n, coords)
                    found, used = walk_tree(membership(k), n, d)
                    assert found == k
                    assert used <= budget


def test_run_matches_step_replay():
    # the stepwise replay must retrace exactly the tests the run issued
    k = bv("0100100010")
    n, d = 10, 3
    probe = membership(k)
    label = Label(0)
    while True:
        state = gbsa_step(label, n, d)
        if state.test is None:
            assert state.found == k.mask
            break
        label = Label(label.n + 1, label.mask | probe(BitVector(n, state.test)) << label.n)
    found, used = walk_tree(probe, n, d)
    assert found == k
    assert used == label.n


@settings(max_examples=150)
@given(st.integers(1, 120), st.integers(1, 6), st.data())
def test_run_random_supports(n, d, data):
    coords = data.draw(
        st.lists(st.integers(1, n), unique=True, max_size=min(d, n))
    )
    k = BitVector.from_coords(n, coords)
    found, used = walk_tree(membership(k), n, d)
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
    label = Label(0)

    def relabel(mask: int) -> int:
        # bit i of a mask over 0..m-1 stands for coordinate coords[i]
        return sum(1 << c for i, c in enumerate(coords) if mask >> i & 1)

    for bit in outcomes:
        step = gbsa_step(label, m, d)
        if state.test is None:
            assert step.test is None
            assert state.found == relabel(step.found)
            return
        assert state.test == relabel(step.test)
        label = Label(label.n + 1, label.mask | bit << label.n)
        try:
            state = tree.advance(state, bit)
        except InfeasiblePrefixError:
            with pytest.raises(InfeasiblePrefixError):
                gbsa_step(label, m, d)
            return


def lowest_by_peeling(mask: int, k: int) -> int:
    """The k lowest set bits of mask, peeled off one at a time."""
    out = 0
    for _ in range(k):
        low = mask & -mask
        out |= low
        mask ^= low
    return out


@settings(max_examples=300)
@given(st.integers(1, 4096), st.sampled_from(["run", "holes", "scattered"]), st.data())
def test_lowest_matches_bit_peeling(n, shape, data):
    # contiguous runs take the one-step path, the other shapes the bisection
    if shape == "scattered":
        coords = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=64))
        mask = sum(1 << i for i in set(coords))
    else:
        start = data.draw(st.integers(0, n - 1))
        length = data.draw(st.integers(1, n - start))
        mask = ((1 << length) - 1) << start
        if shape == "holes":
            holes = data.draw(st.lists(st.integers(start, start + length - 1), max_size=4))
            for i in holes:
                mask &= ~(1 << i)
            mask = mask or 1 << start
    k = data.draw(st.integers(1, mask.bit_count()))
    assert _lowest(mask, k) == lowest_by_peeling(mask, k)


def test_identity_matrix():
    eye = identity_matrix(3)
    assert eye.b == 3
    assert eye.columns == (bv("100"), bv("010"), bv("001"))
    assert verify_disjunct(eye, 1)
    assert verify_disjunct(eye, 2)
    # one coordinate: no other coordinate can cover it
    assert verify_disjunct(identity_matrix(1), 1)


def test_verify_disjunct_rejects():
    assert not verify_disjunct(H_FIG, 1)
    missing = TestMatrix(3, (bv("110"),))
    assert not verify_disjunct(missing, 1)
    with pytest.raises(CapacityError):
        verify_disjunct(identity_matrix(200), 4)
    with pytest.raises(ParameterError):
        verify_disjunct(identity_matrix(4), 0)


def test_construct_disjunct_params():
    # d >= n leaves nothing shorter than the identity
    assert construct_disjunct(1, 1) == identity_matrix(1)
    assert construct_disjunct(8, 8) == identity_matrix(8)
    assert construct_disjunct(8, 20) == identity_matrix(8)
    with pytest.raises(ParameterError):
        construct_disjunct(8, 0)


def test_construct_disjunct_degenerate_is_identity():
    assert construct_disjunct(5, 4) == identity_matrix(5)
    assert construct_disjunct(3, 2) == identity_matrix(3)


def test_construct_disjunct_sperner_tests_for_d1():
    H = construct_disjunct(64, 1)
    assert H.b == 8  # C(8, 4) = 70 >= 64 > C(7, 3)
    assert verify_disjunct(H, 1)


def test_sperner_design_is_minimal_lexicographic_and_covers_every_item():
    # test_construct_disjunct_verifies_at_every_small_n certifies these
    # designs 1-disjunct for n = 1-40; where n <= 4 the identity ties or
    # wins, and it meets the same width bounds
    for n in range(1, 301):
        H = construct_disjunct(n, 1)
        w = H.b
        assert math.comb(w, w // 2) >= n
        if w > 1:
            assert math.comb(w - 1, (w - 1) // 2) < n, n
        assert all(column.mask for column in H.columns), n
        if w < n:
            # item j is in the tests of the j-th w//2-subset, lexicographically
            codes = list(combinations(range(w), w // 2))[:n]
            assert [c.mask for c in H.columns] == [
                sum(1 << j for j, code in enumerate(codes) if t in code) for t in range(w)
            ], n


def test_construct_disjunct_rs_design():
    # GF(4) at m = 3: its four points and infinity, whose symbol (the top
    # base-4 digit) takes 4 values below 64
    H = construct_disjunct(64, 2)
    assert H.b == 20
    assert verify_disjunct(H, 2)


@pytest.mark.parametrize("n, d", [(10, 2), (20, 3), (40, 2), (100, 2)])
def test_construct_disjunct_always_verifies(n, d):
    H = construct_disjunct(n, d)
    assert H.b <= n
    assert verify_disjunct(H, d)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_construct_disjunct_verifies_at_every_small_n(d):
    # every n whose certification fits the work cap at this d
    for n in range(1, 41):
        assert verify_disjunct(construct_disjunct(n, d), d), (n, d)


PRIME_POWERS = [
    2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 37, 41, 43,
    47, 49, 53, 59, 61, 64,
]


def test_prime_powers_below_65():
    assert [q for q in range(2, 65) if _prime_power(q)] == PRIME_POWERS
    assert [_prime_power(q) for q in (2, 16, 27, 49, 64, 61)] == [
        (2, 1), (2, 4), (3, 3), (7, 2), (2, 6), (61, 1),
    ]


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_gf_tables_are_a_field(q):
    add, mul = _gf_tables(q)
    elements = tuple(range(q))
    assert add[0] == elements and mul[1] == elements and mul[0] == (0,) * q
    # each row of the sum is a permutation, so each element has one negative
    assert all(tuple(sorted(row)) == elements for row in add)
    # each nonzero element has exactly one inverse
    assert all(mul[a].count(1) == 1 for a in range(1, q))
    for a in range(q):
        for b in range(q):
            # a*(b + c) = a*b + a*c, and (a*b)*c = a*(b*c), for every c
            assert tuple(map(mul[a].__getitem__, add[b])) == tuple(
                map(add[mul[a][b]].__getitem__, mul[a])
            )
            assert mul[mul[a][b]] == tuple(map(mul[a].__getitem__, mul[b]))


# the moduli of the fields the acceptance grid, the scaling sweep and the
# benchmark build designs over, as integers whose i-th base-p digit is the
# coefficient of x^i
MODULI = {
    (2, 2): 0b111,  # x^2 + x + 1
    (2, 3): 0b1011,  # x^3 + x + 1
    (2, 4): 0b10011,  # x^4 + x + 1
    (3, 3): 27 + 2 * 3 + 1,  # x^3 + 2x + 1
    (7, 1): 7,  # x: GF(7) is arithmetic mod 7
    (11, 1): 11,
    (13, 1): 13,
}


def test_field_moduli_are_pinned():
    assert {key: _gf_modulus(*key) for key in MODULI} == MODULI


@settings(max_examples=150)
@given(st.sampled_from(PRIME_POWERS), st.integers(2, 4), st.data())
def test_rs_codewords_agree_on_at_most_m_minus_1_points(q, m, data):
    # two items share a test iff their codewords carry the same symbol at
    # its point, so two rows meet in at most m - 1 tests however few
    # points are kept, the point at infinity (points = q + 1) included; at
    # the Kautz-Singleton count L = d*(m-1) + 1 that leaves each item a
    # test outside any d others
    n = data.draw(st.integers(2, min(q**m, 200)))
    points = data.draw(st.integers(1, q + 1))
    rows = _rs_concat(n, q, m, points).row_masks
    assert all(0 < row.bit_count() <= points for row in rows)
    assert max(
        (a & b).bit_count() for i, a in enumerate(rows) for b in rows[i + 1 :]
    ) <= m - 1


def test_construct_disjunct_widths():
    # the widths the candidate search picks; a shorter design moves these
    widths = {
        (16, 2): 12, (32, 2): 18, (64, 4): 40, (128, 4): 65, (256, 2): 35,
        (256, 4): 68, (256, 1): 11, (1024, 4): 99, (2048, 4): 117,
        (4096, 2): 56, (4096, 4): 144, (16384, 8): 459,
    }
    assert {key: construct_disjunct(*key).b for key in widths} == widths


def test_construct_disjunct_deterministic():
    assert construct_disjunct(64, 2) == construct_disjunct(64, 2)


def test_decode_disjunct_examples():
    assert decode_disjunct(H_FIG, lab("110"), 2) == bv("0011")
    # the same support is above degree 1: the degree overflow every runner
    # raises, at the label
    with pytest.raises(ReconstructionError) as info:
        decode_disjunct(H_FIG, lab("110"), 1)
    assert str(info.value) == (
        "degree overflow at bucket '110': outcomes imply more than d=1 defectives"
    )
    assert info.value.label == lab("110")
    with pytest.raises(ReconstructionError, match="inconsistent with syndrome '010'") as info:
        decode_disjunct(H_FIG, lab("010"), 1)
    assert info.value.label == lab("010")
    with pytest.raises(DimensionError):
        decode_disjunct(H_FIG, lab("11"), 1)


def test_decode_disjunct_round_trip():
    H = construct_disjunct(20, 2)
    for w in (0, 1, 2):
        for coords in combinations(range(1, 21), w):
            k = BitVector.from_coords(20, coords)
            assert decode_disjunct(H, syndrome(H, k), 2) == k


def row_scan_decode(H: TestMatrix, label: Label) -> int:
    """Coordinates whose every test is positive, by scanning the n rows."""
    support = 0
    for i, row in enumerate(H.row_masks):
        if row & ~label.mask == 0:
            support |= 1 << i
    return support


@settings(max_examples=200)
@given(st.integers(1, 40), st.data())
def test_decoders_match_the_row_scan(n, data):
    # arbitrary matrices, mostly not disjunct, and arbitrary labels
    columns = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=12))
    H = TestMatrix(n, [BitVector(n, c) for c in columns])
    label = Label(H.b, data.draw(st.integers(0, (1 << H.b) - 1)))
    want = row_scan_decode(H, label)
    assert list_decode(H, label) == BitVector(n, want).coords()
    # d = n leaves only the consistency check
    if syndrome(H, BitVector(n, want)) == label:
        assert decode_disjunct(H, label, n) == BitVector(n, want)
    else:
        with pytest.raises(ReconstructionError, match="inconsistent with syndrome") as info:
            decode_disjunct(H, label, n)
        assert info.value.label == label


# (matrix, d): the figure's matrix, explicit d-disjunct designs, and list
# designs, which are not disjunct, so their labels often decode overweight
DECODE_CASES = [
    *((H_FIG, d) for d in (1, 2, 3)),
    *((construct_disjunct(n, d), d) for n, d in ((1, 1), (20, 2), (64, 4), (100, 3), (256, 1))),
    *((construct_list_disjunct(n, d, seed), d) for n, d, seed in ((32, 3, 5), (64, 2, 6), (200, 4, 7))),
]


def decode_outcome(decode, H: TestMatrix, label: Label, d: int):
    try:
        return decode(H, label, d)
    except (ReconstructionError, DimensionError) as err:
        return type(err), str(err), getattr(err, "label", None)


@settings(max_examples=300)
@given(st.sampled_from(DECODE_CASES), st.data())
def test_decode_disjunct_matches_the_reference(case, data):
    H, d = case
    n, b = H.n, H.b
    kind = data.draw(st.sampled_from(["uniform", "syndrome", "flipped", "length"]))
    if kind == "uniform":
        # mostly inconsistent labels
        label = Label(b, data.draw(st.integers(0, (1 << b) - 1)))
    elif kind == "length":
        width = data.draw(st.sampled_from([b + 1, max(b - 1, 0)]).filter(lambda w: w != b))
        label = Label(width, data.draw(st.integers(0, (1 << width) - 1)))
    else:
        # the syndrome of a support up to two above d, so some are overweight
        coords = data.draw(st.lists(st.integers(0, n - 1), max_size=d + 2))
        label = syndrome(H, BitVector(n, sum(1 << i for i in set(coords))))
        if kind == "flipped" and b:
            label = Label(b, label.mask ^ 1 << data.draw(st.integers(0, b - 1)))
    want = decode_outcome(reference_decode.decode_disjunct, H, label, d)
    assert decode_outcome(decode_disjunct, H, label, d) == want
    # handed the support, as pasmt hands it the level loop's, the decoder
    # only checks it, with the same outcome; a wrong-length label fails
    # whatever support comes with it
    if label.n == b:
        support = reference_decode.build_query_vector(H, label).mask
    else:
        support = data.draw(st.integers(0, (1 << n) - 1))
    checked = decode_outcome(lambda H, label, d: decode_disjunct(H, label, d, support), H, label, d)
    assert checked == want


def test_list_design_determinism():
    a = construct_list_disjunct(32, 3, seed=11)
    b = construct_list_disjunct(32, 3, seed=11)
    assert a == b
    c = construct_list_disjunct(32, 3, seed=12)
    assert c != a


def test_list_design_shape():
    design = construct_list_disjunct(32, 3, seed=11)
    # a plain matrix that keeps the seed it was drawn from
    assert isinstance(design, ListDesign) and isinstance(design, TestMatrix)
    assert design.seed == 11
    assert design == TestMatrix(32, design.columns)
    assert design.n == 32
    # smallest b with 2 * (32 - 3) * (4^4 - 3^3)^b <= 3 * 6 * (4^4)^b,
    # where 6 = 3 * floor(log2(32 / 6))
    assert design.b == 11
    # n <= 2d: no tests, so the one candidate set is every coordinate
    for n, d in ((1, 1), (8, 8), (8, 4), (3, 9)):
        design = construct_list_disjunct(n, d, seed=0)
        assert (design.n, design.b) == (n, 0)
        assert list_decode(design, Label(0)) == tuple(range(1, n + 1))
    with pytest.raises(ParameterError):
        construct_list_disjunct(8, 0, seed=0)


def test_list_design_width_is_the_smallest_that_caps_the_expected_list():
    for n in range(1, 601):
        for d in range(1, 9):
            big, small = (d + 1) ** (d + 1), d**d
            cap = d * max(1, math.floor(math.log2(n / (2 * d))))
            b = list_design_width(n, d)
            assert (b == 0) == (n <= 2 * d), (n, d)
            assert 2 * (n - d) * (big - small) ** b <= 3 * cap * big**b, (n, d)
            # the smallest such b, and at least one test where n > 2d
            if b > (n > 2 * d):
                assert 2 * (n - d) * (big - small) ** (b - 1) > 3 * cap * big ** (b - 1), (n, d)
    assert list_design_width(256, 2) == 17
    assert list_design_width(16384, 4) == 65


@pytest.mark.parametrize("n, d", [(5, 0), (0, 1), (-3, 2)])
def test_list_design_width_rejects_inputs_outside_its_domain(n, d):
    with pytest.raises(ParameterError):
        list_design_width(n, d)


@settings(max_examples=60)
@given(st.integers(2, 64), st.integers(0, 2**32), st.data())
def test_list_decode_is_sound(n, seed, data):
    d = data.draw(st.integers(1, min(4, n - 1)))
    design = construct_list_disjunct(n, d, seed)
    coords = data.draw(
        st.lists(st.integers(1, n), unique=True, max_size=d)
    )
    k = BitVector.from_coords(n, coords)
    candidates = list_decode(design, syndrome(design, k))
    assert set(coords).issubset(candidates)
    assert candidates == tuple(sorted(candidates))


def test_list_decode_dimension_check():
    design = construct_list_disjunct(8, 2, seed=3)
    with pytest.raises(DimensionError):
        list_decode(design, Label(0))
