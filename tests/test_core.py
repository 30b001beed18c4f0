from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsemobius.core import (
    MAX_LABEL_LENGTH,
    BitVector,
    Label,
    TestMatrix,
    boolean_leq,
    build_query_vector,
    lex_compare,
    semiring_apply,
)
from sparsemobius.errors import CapacityError, DimensionError


def bv(text: str) -> BitVector:
    return BitVector.from01(text)


def lab(text: str) -> Label:
    return Label.from01(text)


# A small matrix used by several convention checks: two tests over four
# coordinates, test 1 = {1, 3}, test 2 = {2, 3}.
H2 = TestMatrix(4, (bv("1010"), bv("0110")))


def test_bitvector_text_convention():
    x = bv("0011")
    assert x.n == 4
    assert x.coords() == (3, 4)
    assert x.bit(1) == 0
    assert x.bit(2) == 0
    assert x.bit(3) == 1
    assert x.bit(4) == 1
    assert x.weight() == 2
    assert x.to01() == "0011"
    assert BitVector.from_coords(4, [3, 4]) == x
    assert x.complement().to01() == "1100"


def test_bitvector_zeros_ones():
    assert BitVector.zeros(3).to01() == "000"
    assert BitVector.ones(3).to01() == "111"
    assert BitVector.zeros(0).n == 0
    assert BitVector.ones(0) == BitVector.zeros(0)


def test_bitvector_validation():
    with pytest.raises(DimensionError):
        BitVector(-1, 0)
    with pytest.raises(DimensionError):
        BitVector(2, 4)
    with pytest.raises(DimensionError):
        BitVector.from_coords(3, [4])
    with pytest.raises(DimensionError):
        BitVector.from_coords(3, [0])
    with pytest.raises(DimensionError):
        bv("01x")


def test_bitvector_hash_eq():
    assert bv("010") == bv("010")
    assert bv("010") != bv("0100")
    assert hash(bv("010")) == hash(bv("010"))
    assert len({bv("010"), bv("010"), bv("011")}) == 2


def test_boolean_leq_examples():
    assert boolean_leq(bv("0010"), bv("0110"))
    assert not boolean_leq(bv("0110"), bv("0010"))
    assert boolean_leq(bv("0000"), bv("0000"))
    with pytest.raises(DimensionError):
        boolean_leq(bv("01"), bv("011"))


@given(st.integers(1, 10), st.data())
def test_boolean_leq_is_subset_order(n, data):
    a = BitVector(n, data.draw(st.integers(0, 2**n - 1)))
    b = BitVector(n, data.draw(st.integers(0, 2**n - 1)))
    assert boolean_leq(a, b) == set(a.coords()).issubset(b.coords())


def test_label_text_convention():
    ell = lab("011")
    assert ell.length == 3
    assert ell.bit(0) == 0
    assert ell.bit(1) == 1
    assert ell.bit(2) == 1
    assert tuple(ell.bits()) == (0, 1, 1)
    assert ell.to01() == "011"
    assert Label.from_bits([0, 1, 1]) == ell
    assert Label.empty().length == 0
    assert Label.empty().to01() == ""


def test_label_append_concat_prefix():
    ell = Label.empty().append(1).append(0)
    assert ell.to01() == "10"
    assert ell.concat(lab("11")).to01() == "1011"
    assert lab("10").is_prefix_of(lab("1011"))
    assert not lab("11").is_prefix_of(lab("1011"))
    assert Label.empty().is_prefix_of(lab("0"))
    assert lab("10").is_prefix_of(lab("10"))


def test_label_componentwise_order():
    assert lab("01").leq(lab("11"))
    assert not lab("10").leq(lab("01"))
    assert lab("00").leq(lab("00"))
    with pytest.raises(DimensionError):
        lab("0").leq(lab("01"))


def test_label_capacity():
    top = Label(MAX_LABEL_LENGTH, 0)
    with pytest.raises(CapacityError):
        top.append(0)
    with pytest.raises(CapacityError):
        Label(MAX_LABEL_LENGTH + 1, 0)
    with pytest.raises(CapacityError):
        top.concat(lab("0"))


def test_lex_compare_examples():
    assert lex_compare(Label.empty(), lab("0")) == -1
    assert lex_compare(lab("0"), lab("1")) == -1
    assert lex_compare(lab("01"), lab("1")) == -1
    assert lex_compare(lab("101"), lab("11")) == -1
    assert lex_compare(lab("11"), lab("11")) == 0
    assert lex_compare(lab("1"), lab("011")) == 1


def test_lex_sort_order():
    raw = ["11", "0", "101", "1", "011", ""]
    got = sorted((lab(t) for t in raw))
    assert [ell.to01() for ell in got] == ["", "0", "011", "1", "101", "11"]


label_st = st.builds(
    lambda bits: Label.from_bits(bits),
    st.lists(st.integers(0, 1), max_size=12),
)


@given(label_st, label_st)
def test_lex_compare_antisymmetric(a, b):
    assert lex_compare(a, b) == -lex_compare(b, a)
    assert (lex_compare(a, b) == 0) == (a == b)


@given(label_st, st.lists(st.integers(0, 1), min_size=1, max_size=6))
def test_proper_prefix_sorts_first(a, suffix):
    assert lex_compare(a, a.concat(Label.from_bits(suffix))) == -1


@given(st.integers(1, 10), st.data())
def test_lex_refines_componentwise_order(n, data):
    am = data.draw(st.integers(0, 2**n - 1))
    bm = data.draw(st.integers(0, 2**n - 1))
    a, b = Label(n, am), Label(n, bm)
    if a.leq(b) and a != b:
        assert lex_compare(a, b) == -1


def test_matrix_basics():
    assert H2.n == 4
    assert H2.b == 2
    assert H2.column(0) == bv("1010")
    assert H2.column(1) == bv("0110")
    assert H2.row_masks == (0b01, 0b10, 0b11, 0b00)
    with pytest.raises(DimensionError):
        TestMatrix(4, (bv("101"),))
    with pytest.raises(DimensionError):
        H2.column(2)


def test_semiring_apply_forward():
    assert semiring_apply(H2, bv("10")) == bv("1010")
    assert semiring_apply(H2, bv("01")) == bv("0110")
    assert semiring_apply(H2, bv("11")) == bv("1110")
    assert semiring_apply(H2, bv("00")) == bv("0000")
    with pytest.raises(DimensionError):
        semiring_apply(H2, bv("1"))


def test_semiring_apply_transpose():
    assert semiring_apply(H2, bv("0010"), transpose=True) == bv("11")
    assert semiring_apply(H2, bv("1000"), transpose=True) == bv("10")
    assert semiring_apply(H2, bv("0001"), transpose=True) == bv("00")
    assert semiring_apply(H2, bv("1100"), transpose=True) == bv("11")
    with pytest.raises(DimensionError):
        semiring_apply(H2, bv("110"), transpose=True)


def test_build_query_vector_examples():
    assert build_query_vector(H2, lab("00")) == bv("0001")
    assert build_query_vector(H2, lab("10")) == bv("1001")
    assert build_query_vector(H2, lab("01")) == bv("0101")
    assert build_query_vector(H2, lab("11")) == bv("1111")
    assert build_query_vector(TestMatrix(4, []), Label.empty()) == bv("1111")
    with pytest.raises(DimensionError):
        build_query_vector(H2, lab("0"))


def syndrome(H: TestMatrix, k: BitVector) -> Label:
    flags = semiring_apply(H, k, transpose=True)
    return Label.from_bits(flags.bit(t + 1) for t in range(H.b))


def test_subsampling_equivalence_exhaustive():
    # The query vector for a label hits exactly the points whose syndrome
    # sits below that label, for every matrix shape we can afford to sweep.
    for n in (1, 2, 3):
        points = [BitVector(n, m) for m in range(2**n)]
        for b in (1, 2):
            for cols in _all_column_tuples(n, b):
                H = TestMatrix(n, cols)
                for lm in range(2**b):
                    ell = Label(b, lm)
                    x = build_query_vector(H, ell)
                    for k in points:
                        assert boolean_leq(k, x) == syndrome(H, k).leq(ell)


def _all_column_tuples(n, b):
    from itertools import product

    masks = range(2**n)
    for combo in product(masks, repeat=b):
        yield tuple(BitVector(n, m) for m in combo)


@settings(max_examples=200)
@given(st.integers(1, 10), st.integers(1, 4), st.data())
def test_subsampling_equivalence_random(n, b, data):
    cols = tuple(
        BitVector(n, data.draw(st.integers(0, 2**n - 1))) for _ in range(b)
    )
    H = TestMatrix(n, cols)
    ell = Label(b, data.draw(st.integers(0, 2**b - 1)))
    k = BitVector(n, data.draw(st.integers(0, 2**n - 1)))
    x = build_query_vector(H, ell)
    assert boolean_leq(k, x) == syndrome(H, k).leq(ell)


def test_repr_is_stable():
    assert "0011" in repr(bv("0011"))
    assert "011" in repr(lab("011"))
