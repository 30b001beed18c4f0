from __future__ import annotations

import io
import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparsemobius.core import BitVector
from sparsemobius.errors import DimensionError, FormatError, ParameterError, ValidationError
from sparsemobius.fasmt import split_bin
from sparsemobius.harness import generate_synthetic, run_cell
from sparsemobius.oracle import (
    DEFAULT_TAU,
    CountingOracle,
    SparsePolynomial,
    SparsePolyOracle,
    read_hypergraph,
    read_instance,
    read_polynomial,
    write_polynomial,
)


def bv(text: str) -> BitVector:
    return BitVector.from01(text)


P = SparsePolynomial(4, {bv("1000"): 2.0, bv("0001"): 3.0})


def test_polynomial_basics():
    assert P.n == 4
    assert P.sparsity == 2
    assert P.entries == {bv("1000"): 2.0, bv("0001"): 3.0}
    zero = SparsePolynomial(4, {})
    assert zero.sparsity == 0


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


def test_evaluate_examples():
    f = SparsePolyOracle(P)
    assert f.eval(bv("1111")) == 5.0
    assert f.eval(bv("1000")) == 2.0
    assert f.eval(bv("0111")) == 3.0
    assert f.eval(bv("0110")) == 0.0
    assert f.eval(bv("1001")) == 5.0
    with pytest.raises(DimensionError):
        f.eval(bv("111"))


def test_constant_term_always_counts():
    c = SparsePolyOracle(SparsePolynomial(3, {bv("000"): 7.0, bv("100"): 1.0}))
    assert c.eval(bv("000")) == 7.0
    assert c.eval(bv("111")) == 8.0


def test_integer_mode_stays_integer():
    q = SparsePolyOracle(SparsePolynomial(3, {bv("100"): 2, bv("011"): -3}))
    for mask in range(8):
        value = q.eval(BitVector(3, mask))
        assert isinstance(value, int)
    assert q.eval(bv("111")) == -1


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
    assert a != SparsePolynomial(4, {bv("1000"): 2.5})
    # equal by value, but the coefficient dict is mutable: no hash
    with pytest.raises(TypeError):
        hash(a)


def test_hypergraph():
    # the edge-count polynomial: one monomial per edge, in file order
    g = read_hypergraph(io.StringIO("4 2\n3.0 1 2\n-1 4\n"))
    assert g == SparsePolynomial(4, {bv("1100"): 3.0, bv("0001"): -1})
    assert list(g.entries) == [bv("1100"), bv("0001")]
    assert isinstance(g.entries[bv("0001")], int)
    # a point counts the edges inside it
    assert SparsePolyOracle(g).eval(bv("1101")) == 2.0
    assert SparsePolyOracle(g).eval(bv("1011")) == -1


@given(st.integers(0, 15))
def test_residual_of_everything_is_zero(mask):
    # once every coefficient is discovered, each query splits off nothing
    f = SparsePolyOracle(P)
    x = BitVector(4, mask)
    residual = [(k.mask, v) for k, v in P.entries.items()]
    v0, v1, below = split_bin(7.0, x, f.eval(x), residual)
    assert (v0, v1) == (0.0, 7.0)
    assert below == [pair for pair in residual if pair[0] & ~mask == 0]


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


class EvalOnly:
    """An inner oracle with eval alone, the shape of a timing wrapper."""

    def __init__(self, inner):
        self.n = inner.n
        self.inner = inner

    def eval(self, x):
        return self.inner.eval(x)


def test_counting_oracle_over_an_eval_only_inner():
    poly = generate_synthetic(40, 30, 2, seed=4)
    xs = [BitVector(40, m) for m in range(0, 2**40, 2**40 // 70)]
    direct = CountingOracle(SparsePolyOracle(poly))
    wrapped = CountingOracle(EvalOnly(SparsePolyOracle(poly)))
    assert len(xs) >= SparsePolyOracle(poly)._min_batch  # the direct side slices
    for f in (direct, wrapped):
        assert f.batch_eval(xs[:3]) + f.batch_eval(xs) + [f.eval(xs[5])] == [
            SparsePolyOracle(poly).eval(x) for x in xs[:3] + xs + [xs[5]]
        ]
        assert (f.query_count, f.round_count) == (len(xs) + 4, 3)


def test_a_call_that_raises_is_not_charged():
    f = CountingOracle(SparsePolyOracle(P))
    with pytest.raises(DimensionError):
        f.eval(bv("111"))
    with pytest.raises(DimensionError):
        f.batch_eval([bv("1111"), bv("111")])
    assert (f.query_count, f.round_count) == (0, 0)
    f.batch_eval([bv("1111"), bv("0001")])
    assert (f.query_count, f.round_count) == (2, 1)


class ShortBatches(EvalOnly):
    """An inner oracle whose batch_eval drops its last value."""

    def batch_eval(self, xs):
        return [self.inner.eval(x) for x in xs[:-1]]


def test_a_batch_answered_with_too_few_values_raises_and_is_not_charged():
    f = CountingOracle(ShortBatches(SparsePolyOracle(P)))
    with pytest.raises(DimensionError, match="batch of 2 points got 1 values"):
        f.batch_eval([bv("1111"), bv("0001")])
    assert (f.query_count, f.round_count) == (0, 0)


@pytest.mark.parametrize("algorithm", ["pasmt", "hybrid"])
def test_a_short_batch_fails_the_run_instead_of_dropping_buckets(algorithm):
    # the level loop and the engine zip each value with its point, so an
    # unchecked short batch would drop buckets and return a partial map
    f = CountingOracle(ShortBatches(SparsePolyOracle(generate_synthetic(64, 8, 3, 1))))
    with pytest.raises(DimensionError, match="points got"):
        run_cell(algorithm, f, 3, DEFAULT_TAU)


# a coefficient: an int, a small float, or a float of any magnitude up to 1e300
WEIGHTS = st.one_of(
    st.integers(-(10**12), 10**12).filter(bool),
    st.floats(-8, 8, allow_nan=False).filter(bool),
    st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False).filter(bool),
)


@st.composite
def oracle_batches(draw):
    """A polynomial over n <= 300 with supports of size <= 3 (the empty one
    included) and mixed weights, and a batch of 1 to 80 points."""
    n = draw(st.integers(1, 300))
    # sizes drawn first and then filled, so that large ones are common
    s, size = draw(st.integers(0, 60)), draw(st.integers(1, 80))
    weights = draw(st.lists(WEIGHTS, min_size=s, max_size=s))
    rnd = random.Random(draw(st.integers(0, 2**32)))
    entries = {
        BitVector.from_coords(n, rnd.sample(range(1, n + 1), rnd.randint(0, min(3, n)))): v
        for v in weights
    }
    # uniform points, and the all-ones point where every support hits
    full = (1 << n) - 1
    xs = [BitVector(n, rnd.choice((rnd.getrandbits(n), full))) for _ in range(size)]
    return SparsePolynomial(n, entries), xs


def slices(poly: SparsePolynomial, size: int) -> bool:
    """SparsePolyOracle's documented rule: slice a batch of B points when
    B*s >= 8*(B + T + D), T the bytes the supports touch and D the sum of
    the support sizes."""
    coords = {c for k in poly.entries for c in k.coords()}
    touched = len({(c - 1) // 8 for c in coords})
    total = sum(k.weight() for k in poly.entries)
    return size * poly.sparsity >= 8 * (size + touched + total)


def _wide(n, s, size):
    # s supports of weight 2 over n coordinates, and size dense points
    pairs = itertools.islice(itertools.combinations(range(1, n + 1), 2), s)
    entries = {BitVector.from_coords(n, pair): 1.5 - i for i, pair in enumerate(pairs)}
    return SparsePolynomial(n, entries), [BitVector(n, (1 << n) - 1 - i) for i in range(size)]


@settings(max_examples=100, deadline=None)
@given(oracle_batches())
@example(_wide(13, 3, 80))  # the loop side
@example(_wide(13, 40, 80))  # the sliced side, at n not a multiple of 8
def test_batch_eval_is_eval_per_point(case):
    poly, xs = case
    oracle = SparsePolyOracle(poly)
    want = [oracle.eval(x) for x in xs]
    assert (len(xs) >= oracle._min_batch) == slices(poly, len(xs))
    # both paths, whichever side the batch falls on
    for got in (oracle.batch_eval(xs), oracle._sliced(xs)):
        assert list(map(repr, got)) == list(map(repr, want))
        assert list(map(type, got)) == list(map(type, want))


@pytest.mark.parametrize("size", [1, 5, 80])
def test_batch_eval_rejects_a_bad_point_anywhere(size):
    poly, xs = _wide(13, 40, size)
    for at in range(size):
        bad = xs[:at] + [BitVector(12, 1)] + xs[at + 1 :]
        f = CountingOracle(SparsePolyOracle(poly))
        with pytest.raises(DimensionError):
            f.batch_eval(bad)
        with pytest.raises(DimensionError):
            SparsePolyOracle(poly)._sliced(bad)
        assert (f.query_count, f.round_count) == (0, 0)


def test_slicing_tables_are_built_by_the_first_sliced_batch():
    poly, xs = _wide(13, 40, 80)
    oracle = SparsePolyOracle(poly)
    assert 5 < oracle._min_batch <= 80
    oracle.batch_eval(xs[:5])
    assert oracle._tables is None
    oracle.batch_eval(xs)
    assert oracle._tables is not None
    # an oracle with s <= 8 never slices
    assert SparsePolyOracle(_wide(13, 8, 1)[0])._min_batch == math.inf


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
    "text, form, entries",
    [
        ("4 2\n2.0 1000\n3.0 0001\n", "auto", {bv("1000"): 2.0, bv("0001"): 3.0}),
        ("4 2\n\n3 1 2\n-1 4\n", "auto", {bv("1100"): 3, bv("0001"): -1}),
        ("+4 1\n1 1000\n", "auto", {bv("1000"): 1}),
        ("4 0\n", "auto", {}),
        ("2 1\n1 2\n", "hgr", {bv("01"): 1}),
        ("2 1\n1 01\n", "poly", {bv("01"): 1}),
    ],
)
def test_read_instance_reads_either_format_from_a_handle(text, form, entries):
    assert read_instance(io.StringIO(text), form).entries == entries


def test_read_instance_errors():
    # a 4-character vertex token is not a bitstring over n = 5
    with pytest.raises(FormatError, match="line 2: vertex id 1000 out of range"):
        read_instance(io.StringIO("5 1\n1 1000\n"))
    with pytest.raises(FormatError, match="line 1: polynomial header"):
        read_instance(io.StringIO("4\n1 1000\n"))
    with pytest.raises(ParameterError, match="unknown instance format"):
        read_instance(io.StringIO("4 0\n"), "xml")


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


def test_a_decimal_past_the_float_range_is_not_finite():
    with pytest.raises(FormatError, match="line 2: non-finite value '1e999'"):
        read_polynomial(io.StringIO("2 1\n1e999 10\n"))


@pytest.mark.parametrize(
    "read, text, lineno",
    [
        (read_polynomial, "2 1\n1_000 10\n", 2),
        (read_polynomial, "2 1\n1_0.5 10\n", 2),
        (read_polynomial, "2 1\n\u0661\u0662 10\n", 2),
        (read_polynomial, "2 1\nnan 10\n", 2),
        (read_polynomial, "1_0 1\n1 1000000000\n", 1),
        (read_hypergraph, "1_0 1\n1 1\n", 1),
        (read_hypergraph, "12 1\n1 1_0\n", 2),
        (read_hypergraph, "12 1\n1 \u0661\n", 2),
        (read_hypergraph, "12 1\n1_0 1\n", 2),
    ],
    ids=[
        "underscore-value", "underscore-float", "arabic-indic-value", "nan",
        "underscore-header", "underscore-edge-header", "underscore-vertex",
        "arabic-indic-vertex", "underscore-weight",
    ],
)
def test_readers_take_only_plain_ascii_numerals(read, text, lineno):
    # int() and float() alone read each of these as a number
    with pytest.raises(FormatError) as info:
        read(io.StringIO(text))
    assert info.value.line == lineno


@pytest.mark.parametrize(
    "read, text, lineno",
    [
        (read_polynomial, "4 1\n1{0} 1000\n", 2),
        (read_polynomial, "1{0} 1\n1 1000\n", 1),
        (read_hypergraph, "4 1\n1 1{0}\n", 2),
        (read_instance, "4 1\n-1{0} 1000\n", 2),
    ],
    ids=["coefficient", "header", "vertex-id", "instance"],
)
def test_a_numeral_past_the_digit_limit_is_a_format_error(read, text, lineno):
    with pytest.raises(FormatError, match="5001 digits is past the .*-digit limit") as info:
        read(io.StringIO(text.format("0" * 5000)))
    assert info.value.line == lineno


def test_writing_a_coefficient_past_the_digit_limit_names_its_support():
    poly = SparsePolynomial(4, {bv("0110"): 10**5000, bv("1000"): 1})
    with pytest.raises(ValidationError, match="support '0110' is past the .*-digit limit"):
        write_polynomial(poly, io.StringIO())


def test_readers_take_signs_points_and_exponents():
    text = "4 4\n+2 1000\n-.5 0100\n5. 0010\n1e3 0001\n"
    got = read_polynomial(io.StringIO(text)).entries
    assert list(got.values()) == [2, -0.5, 5.0, 1000.0]
    assert isinstance(got[bv("1000")], int)
    assert read_hypergraph(io.StringIO("+3 1\n-2 +3\n")).entries == {bv("001"): -2}


def test_hypergraph_file_round_trip(tmp_path):
    # an edge list read from a file and written as coefficients reads back
    # as the same polynomial
    path = tmp_path / "graph.txt"
    path.write_text("5 2\n3 2 1\n-1.25 5\n")
    g = read_hypergraph(path)
    assert g.entries == {bv("11000"): 3, bv("00001"): -1.25}
    poly = tmp_path / "poly.txt"
    write_polynomial(g, poly)
    assert poly.read_text() == "5 2\n3 11000\n-1.25 00001\n"
    assert read_polynomial(poly) == g


@pytest.mark.parametrize(
    "text, lineno",
    [
        ("0 1\n1.0 1\n", 1),
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
