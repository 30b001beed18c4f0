from __future__ import annotations

import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sparsemobius.core import BitVector
from sparsemobius.errors import DimensionError, FormatError, ValidationError
from sparsemobius.fasmt import split_bin
from sparsemobius.oracle import (
    CountingOracle,
    Hypergraph,
    SparsePolynomial,
    SparsePolyOracle,
    eval_sparse,
    hypergraph_to_polynomial,
    read_hypergraph,
    read_polynomial,
    write_hypergraph,
    write_polynomial,
)


def bv(text: str) -> BitVector:
    return BitVector.from01(text)


P = SparsePolynomial(4, {bv("1000"): 2.0, bv("0001"): 3.0})


def test_polynomial_basics():
    assert P.n == 4
    assert P.sparsity == 2
    assert P.degree() == 1
    assert P.support() == {bv("1000"), bv("0001")}
    zero = SparsePolynomial(4, {})
    assert zero.sparsity == 0
    assert zero.degree() == 0


def test_polynomial_validation():
    with pytest.raises(DimensionError):
        SparsePolynomial(0, {})
    with pytest.raises(DimensionError):
        SparsePolynomial(4, {bv("100"): 1.0})
    with pytest.raises(ValidationError):
        SparsePolynomial(4, {bv("1000"): 0.0})
    with pytest.raises(ValidationError):
        SparsePolynomial(4, {bv("1000"): float("nan")})
    with pytest.raises(ValidationError):
        SparsePolynomial(4, {bv("1100"): 1.0}, degree_bound=1)
    # weight exactly at the bound is fine
    SparsePolynomial(4, {bv("1100"): 1.0}, degree_bound=2)


def test_eval_sparse_examples():
    assert eval_sparse(P, bv("1111")) == 5.0
    assert eval_sparse(P, bv("1000")) == 2.0
    assert eval_sparse(P, bv("0111")) == 3.0
    assert eval_sparse(P, bv("0110")) == 0.0
    assert P.evaluate(bv("1001")) == 5.0
    with pytest.raises(DimensionError):
        eval_sparse(P, bv("111"))


def test_constant_term_always_counts():
    c = SparsePolynomial(3, {bv("000"): 7.0, bv("100"): 1.0})
    assert eval_sparse(c, bv("000")) == 7.0
    assert eval_sparse(c, bv("111")) == 8.0


def test_integer_mode_stays_integer():
    q = SparsePolynomial(3, {bv("100"): 2, bv("011"): -3})
    for mask in range(8):
        value = eval_sparse(q, BitVector(3, mask))
        assert isinstance(value, int)
    assert eval_sparse(q, bv("111")) == -1


def test_close_to():
    q = SparsePolynomial(4, {bv("1000"): 2.0 + 5e-10, bv("0001"): 3.0})
    assert P.close_to(q, 1e-9)
    assert not P.close_to(q, 1e-12)
    missing = SparsePolynomial(4, {bv("1000"): 2.0})
    assert not P.close_to(missing, 1.0)
    other_n = SparsePolynomial(3, {bv("100"): 2.0})
    assert not other_n.close_to(P, 1.0)


def test_polynomial_eq_hash():
    a = SparsePolynomial(4, {bv("1000"): 2.0})
    b = SparsePolynomial(4, {bv("1000"): 2.0}, degree_bound=3)
    assert a == b
    assert hash(a) == hash(b)
    assert a != SparsePolynomial(4, {bv("1000"): 2.5})


def test_hypergraph():
    g = Hypergraph(4, [(bv("1100"), 3.0), (bv("0001"), -1.0)])
    assert hypergraph_to_polynomial(g).entries == {bv("1100"): 3.0, bv("0001"): -1.0}
    with pytest.raises(ValidationError):
        Hypergraph(4, [(bv("1100"), 1.0), (bv("1100"), 2.0)])
    with pytest.raises(ValidationError):
        Hypergraph(4, [(bv("1100"), 0.0)])
    with pytest.raises(DimensionError):
        Hypergraph(4, [(bv("110"), 1.0)])


@given(st.integers(0, 15))
def test_residual_of_everything_is_zero(mask):
    # once every coefficient is discovered, each query splits off nothing
    f = SparsePolyOracle(P)
    x = BitVector(4, mask)
    assert split_bin(7.0, x, f.eval(x), P.entries) == (0.0, 7.0)


def test_counting_oracle_single_evals():
    f = CountingOracle(SparsePolyOracle(P))
    assert f.n == 4
    f.eval(bv("1111"))
    f.eval(bv("0000"))
    f.eval(bv("1010"))
    assert f.query_count == 3
    assert f.round_count == 3


def test_counting_oracle_batches():
    f = CountingOracle(SparsePolyOracle(P))
    got = f.batch_eval([bv("1111"), bv("0001"), bv("0000")])
    assert got == [5.0, 3.0, 0.0]
    assert f.query_count == 3
    assert f.round_count == 1
    assert f.batch_eval([]) == []
    assert f.query_count == 3
    assert f.round_count == 1
    f.batch_eval([bv("1111")])
    f.eval(bv("1111"))
    assert f.query_count == 5
    assert f.round_count == 3


def test_polynomial_file_round_trip(tmp_path):
    path = tmp_path / "poly.txt"
    write_polynomial(P, path)
    back = read_polynomial(path)
    assert back == P
    # canonical order: supports ascending by integer mask
    text = path.read_text()
    assert text == "4 2\n2.0 1000\n3.0 0001\n"


def test_polynomial_file_integer_mode(tmp_path):
    path = tmp_path / "int.txt"
    q = SparsePolynomial(3, {bv("110"): 4, bv("001"): -2})
    write_polynomial(q, path)
    back = read_polynomial(path)
    assert back == q
    assert all(isinstance(v, int) for v in back.entries.values())


def test_polynomial_read_from_handle():
    back = read_polynomial(io.StringIO("2 1\n1.5 10\n"))
    assert back == SparsePolynomial(2, {bv("10"): 1.5})
    empty = read_polynomial(io.StringIO("3 0\n"))
    assert empty.sparsity == 0


@pytest.mark.parametrize(
    "text, lineno",
    [
        ("", 1),
        ("2\n", 1),
        ("x y\n", 1),
        ("0 1\n1.0 \n", 1),
        ("2 1\n", 2),
        ("2 1\n1.0 10\n2.0 01\n", 3),
        ("2 1\n1.0\n", 2),
        ("2 1\nabc 10\n", 2),
        ("2 1\ninf 10\n", 2),
        ("2 1\n1.0 102\n", 2),
        ("2 1\n1.0 1\n", 2),
        ("2 1\n0 10\n", 2),
        ("2 2\n1.0 10\n2.0 10\n", 3),
    ],
)
def test_polynomial_format_errors(text, lineno):
    with pytest.raises(FormatError) as info:
        read_polynomial(io.StringIO(text))
    assert info.value.line == lineno
    assert f"line {lineno}:" in str(info.value)


def test_hypergraph_file_round_trip(tmp_path):
    path = tmp_path / "graph.txt"
    g = Hypergraph(5, [(bv("11000"), 3), (bv("00001"), -1.25)])
    write_hypergraph(g, path)
    back = read_hypergraph(path)
    assert back.n == 5
    assert back.edges == g.edges
    assert path.read_text() == "5 2\n3 1 2\n-1.25 5\n"


@pytest.mark.parametrize(
    "text, lineno",
    [
        ("2 1\n1.0\n", 2),
        ("2 1\n1.0 3\n", 2),
        ("2 1\n1.0 0\n", 2),
        ("2 1\n1.0 x\n", 2),
        ("2 1\n1.0 1 1\n", 2),
        ("2 1\n0 1\n", 2),
        ("2 2\n1.0 1\n2.0 1\n", 3),
    ],
)
def test_hypergraph_format_errors(text, lineno):
    with pytest.raises(FormatError) as info:
        read_hypergraph(io.StringIO(text))
    assert info.value.line == lineno


def test_blank_lines_are_skipped():
    back = read_polynomial(io.StringIO("2 1\n\n1.0 10\n\n"))
    assert back == SparsePolynomial(2, {bv("10"): 1.0})


@given(
    st.integers(1, 6),
    st.dictionaries(
        st.integers(0, 63),
        st.one_of(
            st.integers(-9, 9).filter(bool),
            st.floats(-4, 4, allow_nan=False).filter(lambda v: abs(v) > 1e-6),
        ),
        max_size=5,
    ),
)
def test_write_read_round_trip_random(n, raw):
    entries = {BitVector(n, m % (2**n)): v for m, v in raw.items()}
    entries = {k: v for k, v in entries.items() if v != 0}
    poly = SparsePolynomial(n, entries)
    buf = io.StringIO()
    write_polynomial(poly, buf)
    buf.seek(0)
    assert read_polynomial(buf) == poly
