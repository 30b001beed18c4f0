from __future__ import annotations

import io

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparsemobius.core import (
    BitVector,
    Label,
    TestMatrix,
    build_query_vector,
    log_query,
    syndrome,
)
from sparsemobius.errors import DimensionError
from sparsemobius.harness import ALGORITHMS, generate_synthetic, run_cell
from sparsemobius.oracle import CountingOracle, SparsePolyOracle


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
    assert x.mask == 0b1100
    assert x.weight() == 2
    assert x.to01() == "0011"
    assert BitVector.from_coords(4, [3, 4]) == x


def test_bitvector_zeros_ones():
    assert BitVector(3).to01() == "000"
    assert BitVector.ones(3).to01() == "111"
    assert BitVector(0).n == 0
    assert BitVector.ones(0) == BitVector(0)


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


@pytest.mark.parametrize("cls", [BitVector, Label], ids=["BitVector", "Label"])
@pytest.mark.parametrize("width", [0, 1, 7, 64, 4096])
def test_mask_fits_width_boundary(cls, width):
    # a vector checks its mask against its length under either name
    assert cls(width, (1 << width) - 1).mask == (1 << width) - 1
    for mask in (1 << width, -1):
        with pytest.raises(DimensionError, match="does not fit"):
            cls(width, mask)


def to01_per_bit(v: BitVector) -> str:
    """The textual form by its definition: one character per coordinate."""
    return "".join("1" if (v.mask >> i) & 1 else "0" for i in range(v.n))


def from01_per_bit(text: str) -> BitVector:
    """The parse by its definition: coordinate i+1 from character i."""
    mask = 0
    for i, ch in enumerate(text):
        if ch == "1":
            mask |= 1 << i
        elif ch != "0":
            raise DimensionError(f"invalid bit {ch!r} in {text!r}")
    return BitVector(len(text), mask)


@st.composite
def vectors(draw):
    """Vectors of length 0..5,000, half of them with coordinate n set."""
    n = draw(st.integers(0, 5000))
    mask = draw(st.integers(0, (1 << n) - 1))
    if n and draw(st.booleans()):
        mask |= 1 << (n - 1)
    return BitVector(n, mask)


@settings(max_examples=200, deadline=None)
@given(vectors())
@example(BitVector(0))
@example(BitVector(1, 1))
@example(BitVector(5000, 1 << 4999))
@example(BitVector.ones(5000))
def test_text_form_matches_the_per_bit_definition(v):
    text = to01_per_bit(v)
    assert v.to01() == text
    assert BitVector.from01(text) == from01_per_bit(text) == v


@given(
    st.text(alphabet="01", max_size=40),
    st.characters(blacklist_characters="01"),
    st.text(max_size=10),
)
@example("", "2", "")
@example("0110", " ", "1")
@example("1", "\u0661", "")  # a Unicode digit one that int() would read
def test_from01_names_the_first_invalid_character(head, bad, tail):
    text = head + bad + tail
    with pytest.raises(DimensionError) as info:
        BitVector.from01(text)
    with pytest.raises(DimensionError) as ref:
        from01_per_bit(text)
    assert str(info.value) == str(ref.value) == f"invalid bit {bad!r} in {text!r}"


def test_bitvector_hash_eq():
    assert bv("010") == bv("010")
    assert bv("010") != bv("0100")
    assert hash(bv("010")) == hash(bv("010"))
    assert len({bv("010"), bv("010"), bv("011")}) == 2


def test_label_text_convention():
    ell = lab("011")
    assert ell.n == 3
    assert ell.mask == 0b110
    assert ell.to01() == "011"
    assert Label(3, 0b110) == ell
    with pytest.raises(DimensionError):
        lab("01x")
    assert Label(0).n == 0
    assert Label(0).to01() == ""


def test_matrix_basics():
    assert H2.n == 4
    assert H2.b == 2
    assert H2.columns == (bv("1010"), bv("0110"))
    assert H2.row_masks == (0b01, 0b10, 0b11, 0b00)
    with pytest.raises(DimensionError):
        TestMatrix(4, (bv("101"),))
    with pytest.raises(DimensionError):
        TestMatrix(0, [])


def test_semiring_apply_transpose():
    # the syndrome is the transposed (OR, AND) product: one flag per column
    assert syndrome(H2, bv("0010")) == lab("11")
    assert syndrome(H2, bv("1000")) == lab("10")
    assert syndrome(H2, bv("0001")) == lab("00")
    assert syndrome(H2, bv("1100")) == lab("11")
    assert syndrome(TestMatrix(4, []), bv("1111")) == Label(0)
    with pytest.raises(DimensionError):
        syndrome(H2, bv("110"))


def test_log_query_line():
    out = io.StringIO()
    log_query(out, lab("01"), bv("0011"), 2.5)
    log_query(None, lab("01"), bv("0011"), 2.5)
    assert out.getvalue() == "01\t0011\t2.5\n"


def test_build_query_vector_examples():
    assert build_query_vector(H2, lab("00")) == bv("0001")
    assert build_query_vector(H2, lab("10")) == bv("1001")
    assert build_query_vector(H2, lab("01")) == bv("0101")
    assert build_query_vector(H2, lab("11")) == bv("1111")
    assert build_query_vector(TestMatrix(4, []), Label(0)) == bv("1111")
    with pytest.raises(DimensionError):
        build_query_vector(H2, lab("0"))


def below(a: int, b: int) -> bool:
    """Every bit set in mask a is set in mask b."""
    return a & b == a


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
                        assert below(k.mask, x.mask) == below(syndrome(H, k).mask, ell.mask)


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
    assert below(k.mask, x.mask) == below(syndrome(H, k).mask, ell.mask)


def test_repr_is_stable():
    assert "0011" in repr(bv("0011"))
    assert "011" in repr(lab("011"))


class RecordingOracle:
    """Evaluation oracle that keeps every point it is asked about."""

    def __init__(self, inner: SparsePolyOracle):
        self.inner = inner
        self.n = inner.n
        self.points: list[BitVector] = []

    def eval(self, x: BitVector) -> float:
        self.points.append(x)
        return self.inner.eval(x)

    def batch_eval(self, xs) -> list[float]:
        self.points.extend(xs)
        return self.inner.batch_eval(xs)


@pytest.mark.parametrize("logged", [False, True])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("n, d", [(1, 1), (8, 4), (64, 2), (4096, 4)])
def test_every_query_point_is_well_formed(n, d, algorithm, logged):
    # the level loop and the engine build their points without
    # BitVector's checks; each must still be the vector the checks allow
    truth = generate_synthetic(n, 6, d, seed=n + d)
    oracle = RecordingOracle(SparsePolyOracle(truth))
    sink = io.StringIO() if logged else None
    got = run_cell(algorithm, CountingOracle(oracle), d, 1e-9, sink)
    assert got.entries.keys() == truth.entries.keys()
    assert len(oracle.points) > 1
    for x in oracle.points:
        assert type(x) is BitVector
        assert x.n == oracle.n
        assert 0 <= x.mask < 2**n
        assert x == BitVector(n, x.mask)
        assert hash(x) == hash(BitVector(n, x.mask))
