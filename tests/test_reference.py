from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sparsemobius.core import BitVector
from sparsemobius.errors import CapacityError, DimensionError
from sparsemobius.oracle import SparsePolynomial, SparsePolyOracle
from sparsemobius.reference import (
    DenseTable,
    check_subset_sum_independence,
    mobius_transform,
    zeta_transform,
)


def bv(text: str) -> BitVector:
    return BitVector.from01(text)


def test_dense_table_indexing():
    t = DenseTable(2, [10, 11, 12, 13])
    assert t[bv("00")] == 10
    assert t[bv("10")] == 11
    assert t[bv("01")] == 12
    assert t[bv("11")] == 13
    with pytest.raises(DimensionError):
        t[bv("0")]
    with pytest.raises(DimensionError):
        DenseTable(2, [1, 2, 3])
    with pytest.raises(DimensionError):
        DenseTable(0, [0])
    with pytest.raises(CapacityError):
        DenseTable(25, [])


def test_zeta_transform_example():
    # coefficients 1 on {}, 2 on {1}: f(x) = 1 + 2*[x1 set]
    coeff = DenseTable(2, [1, 2, 0, 0])
    evals = zeta_transform(coeff)
    assert evals.values == [1, 3, 1, 3]
    assert mobius_transform(evals).values == [1, 2, 0, 0]


def test_zeta_matches_direct_subset_sum():
    coeff = DenseTable(3, [3, -1, 4, 1, -5, 9, 2, 6])
    evals = zeta_transform(coeff)
    for x in range(8):
        direct = sum(v for k, v in enumerate(coeff.values) if k & ~x == 0)
        assert evals.values[x] == direct


@given(st.integers(1, 6), st.data())
def test_transforms_are_inverse(n, data):
    values = data.draw(
        st.lists(st.integers(-50, 50), min_size=2**n, max_size=2**n)
    )
    table = DenseTable(n, values)
    assert mobius_transform(zeta_transform(table)).values == values
    assert zeta_transform(mobius_transform(table)).values == values


def test_dense_from_polynomial_and_eval_agree():
    poly = SparsePolynomial(3, {bv("100"): 2, bv("011"): -3, bv("000"): 1})
    coeff = DenseTable.zeros(3)
    for k, v in poly.entries.items():
        coeff.values[k.mask] = v
    evals = zeta_transform(coeff)
    for m in range(8):
        x = BitVector(3, m)
        assert evals[x] == SparsePolyOracle(poly).eval(x)


def test_subset_sum_independence_examples():
    ok = SparsePolynomial(3, {bv("100"): 1, bv("010"): 2, bv("001"): -4})
    assert check_subset_sum_independence(ok)
    bad = SparsePolynomial(3, {bv("100"): 1, bv("010"): 2, bv("001"): -3})
    assert not check_subset_sum_independence(bad)
    assert check_subset_sum_independence(SparsePolynomial(3, {}))


def test_subset_sum_independence_sign_uniform_shortcut():
    # 30 positive values exceed the enumeration cap but need no enumeration
    entries = {BitVector(30, 1 << i): float(i + 1) for i in range(30)}
    assert check_subset_sum_independence(SparsePolynomial(30, entries))
    negs = {BitVector(30, 1 << i): -float(i + 1) for i in range(30)}
    assert check_subset_sum_independence(SparsePolynomial(30, negs))


def test_subset_sum_independence_tau():
    poly = SparsePolynomial(2, {bv("10"): 1.0, bv("01"): -1.0 + 1e-12})
    assert not check_subset_sum_independence(poly, tau=1e-9)
    assert check_subset_sum_independence(poly, tau=1e-15)
    tiny = SparsePolynomial(1, {bv("1"): 1e-12})
    assert not check_subset_sum_independence(tiny, tau=1e-9)


def test_subset_sum_independence_cap():
    entries = {BitVector(30, 1 << i): float(i + 1) for i in range(26)}
    entries[BitVector(30, 1 << 26)] = -1e9
    with pytest.raises(CapacityError):
        check_subset_sum_independence(SparsePolynomial(30, entries))
