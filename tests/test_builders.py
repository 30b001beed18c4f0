"""The set-up builders give the designs and instances they always gave.

reference_builders keeps bernoulli_mask, _rs_concat, unrank_subset and
list_design_width as they were before they read several digits per step
or bounded their powers in fixed point (and _rs_concat with field
arithmetic of its own, one item and one digit at a time), so each current
builder is compared with its reference draw for draw, and the bulk draw behind
bernoulli_mask with successive rng.below calls; the digests below pin the
designs and instances at the benchmark's sizes, which BENCH_paper.json's
golden runs reach only at (1024, 4) and (2048, 4), with other seeds.
"""

from __future__ import annotations

import hashlib
import time
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_builders as ref
from sparsemobius import grouptest
from sparsemobius.core import TestMatrix
from sparsemobius.grouptest import (
    _rs_concat,
    construct_disjunct,
    construct_list_disjunct,
    list_design_width,
)
from sparsemobius.harness import generate_synthetic
from sparsemobius.oracle import SparsePolynomial
from sparsemobius.rng import MAX_RANK, SplitMix64, _below_many, bernoulli_mask, unrank_subset

# small bases, bases around the digit table's 1,024-entry cap, and bases
# past 2^64, which one 64-bit word cannot hold
BASES = st.one_of(
    st.integers(2, 40), st.integers(1000, 1100), st.integers(2**64 - 2, 2**64 + 9)
)


@settings(max_examples=250)
@given(
    st.one_of(st.integers(0, 300), st.integers(0, 5000)),
    st.one_of(st.integers(2, 9), BASES),
    st.integers(0, 2**64 - 1),
)
def test_bernoulli_mask_matches_the_per_digit_reference(n, base, seed):
    a, b = SplitMix64(seed), SplitMix64(seed)
    mask = bernoulli_mask(a, n, base)
    assert mask == ref.bernoulli_mask(b, n, base)
    assert a.state == b.state
    assert mask < 1 << n


SEEDS = st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1))
# no rejection (powers of 2 up to 2^64), 34 % (3^40), just under 50 %
# (2^63 + 1), bound 1, any one-word bound, and bounds past 2^64
DRAW_BOUNDS = st.one_of(
    st.integers(0, 64).map(lambda e: 2**e),
    st.sampled_from([1, 3**40, 2**63 + 1]),
    st.integers(2, MAX_RANK),
    st.integers(MAX_RANK + 1, 2**200),
)


@settings(max_examples=300)
@given(DRAW_BOUNDS, st.integers(0, 600), SEEDS)
@example(3**40, 600, 2**64 - 1)  # the state wraps
@example(2**63 + 1, 600, 0)
@example(MAX_RANK, 600, 2**64 - 1)
@example(1, 257, 0)
@example(MAX_RANK + 1, 600, 2**64 - 1)
def test_below_many_is_successive_below_draws(bound, count, seed):
    a, b = SplitMix64(seed), SplitMix64(seed)
    assert _below_many(a, bound, count) == [b.below(bound) for _ in range(count)]
    assert a.state == b.state


def subset_cases():
    n = st.one_of(st.integers(0, 60), st.integers(61, 10**6))
    c = n.flatmap(lambda n: st.tuples(st.just(n), st.integers(0, min(n, 20))))
    return c.flatmap(lambda nc: st.tuples(st.just(nc), st.integers(0, comb(*nc) - 1)))


@settings(max_examples=300)
@given(subset_cases())
@example(((4096, 16), comb(4096, 16) - 1))  # a rank past 2^64
@example(((4096, 16), 2**64))
@example(((4096, 16), comb(4095, 15)))  # the first rank whose subset skips 1
@example(((400, 200), comb(400, 200) // 7))  # guesses that miss by more than one
def test_unrank_subset_matches_the_bisection_reference(case):
    (n, c), rank = case
    assert unrank_subset(n, c, rank) == ref.unrank_subset(n, c, rank)


PRIME_POWERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32]


@settings(max_examples=100)
@given(st.sampled_from(PRIME_POWERS), st.integers(1, 4), st.data())
def test_rs_concat_matches_the_per_item_reference(q, m, data):
    # points q evaluates at all of GF(q), as the full-length code does, and
    # q + 1 adds the point at infinity
    n = data.draw(st.integers(1, min(q**m, 700)))
    points = data.draw(st.integers(1, q + 1))
    assert _rs_concat(n, q, m, points) == ref._rs_concat(n, q, m, points)


def test_field_moduli_match_the_trial_division_reference():
    # every (p, k) with p^k <= 1024
    for q in range(2, 1025):
        if grouptest._prime_power(q):
            p, k = ref.prime_power(q)
            assert grouptest._gf_modulus(p, k) == ref.gf_modulus(p, k), q


def test_rs_concat_past_one_byte_symbols_matches_the_reference():
    # q >= 256: the symbols no longer fit a byte each; 258 points are all
    # of GF(257) and infinity
    assert _rs_concat(600, 257, 2, 258) == ref._rs_concat(600, 257, 2, 258)
    assert _rs_concat(600, 257, 2, 9) == ref._rs_concat(600, 257, 2, 9)


@settings(max_examples=300)
@given(st.integers(1, 5000), st.integers(1, 40))
@example(4096, 4)
@example(9, 4)  # n = 2d + 1, the first n with a test
def test_list_design_width_matches_the_exact_power_reference(n, d):
    assert list_design_width(n, d) == ref.list_design_width(n, d)


@settings(max_examples=200)
@given(st.integers(1, 300), st.integers(1, 12), st.integers(0, 8))
def test_list_design_width_decides_straddled_bounds_exactly(n, d, guard):
    # with few fraction bits the fixed-point bounds straddle the threshold
    # at most widths, so the answer rests on the exact comparison
    saved = grouptest._WIDTH_GUARD_BITS
    grouptest._WIDTH_GUARD_BITS = guard - n.bit_length()
    try:
        assert list_design_width(n, d) == ref.list_design_width(n, d)
    finally:
        grouptest._WIDTH_GUARD_BITS = saved


# list-design widths at every (n, d) the benchmark, and the golden runs and
# acceptance grid recorded in BENCH_paper.json, build a list design at
WIDTHS = {
    (1, 1): 0, (16, 1): 5, (16, 2): 6, (16, 4): 9, (20, 3): 12,
    (32, 1): 6, (32, 2): 8, (32, 4): 10, (50, 4): 16, (64, 1): 8,
    (64, 2): 11, (64, 4): 15, (100, 3): 16, (128, 1): 10, (128, 2): 14,
    (128, 4): 20, (256, 1): 12, (256, 2): 17, (256, 4): 25, (1024, 4): 38,
    (2048, 4): 44, (4096, 4): 51,
}


@pytest.mark.parametrize("n, d", sorted(WIDTHS))
def test_list_design_widths_are_pinned(n, d):
    assert list_design_width(n, d) == WIDTHS[n, d] == ref.list_design_width(n, d)


@settings(max_examples=100)
@given(st.integers(1, 400), st.integers(2, 12), st.integers(0, 2**64 - 1), st.integers(0, 20))
def test_list_design_is_a_prefix_of_its_column_stream(n, d, seed, extra):
    # a design at d >= 2 is the first list_design_width(n, d) columns of
    # its seed's stream, so a design of another width is a prefix of this
    # one or extends it
    design = construct_list_disjunct(n, d, seed)
    stream = ref.list_design_stream(n, d, seed, design.b + extra)
    assert [c.mask for c in design.columns] == stream[: design.b]


@settings(max_examples=100)
@given(st.integers(3, 400), st.integers(0, 2**64 - 1))
def test_list_design_at_d1_is_the_sperner_design(n, seed):
    # a 1-disjunct matrix is a list design whose false-candidate lists are
    # empty, and at d = 1 it is narrower than the Bernoulli design
    design = construct_list_disjunct(n, 1, seed)
    assert design.columns == construct_disjunct(n, 1).columns
    assert design.seed == seed


def test_list_design_width_at_large_d_is_cheap():
    # the exact powers reach millions of bits here: about 4.5 s of CPU
    start = time.process_time()
    assert list_design_width(4096, 256) == 839
    assert time.process_time() - start < 1.0


def test_sperner_design_at_large_n_is_cheap():
    # the per-bit design it replaced took about 5 s of CPU here, and a loop
    # that ORs each item into its tests about 4 s
    start = time.process_time()
    assert construct_disjunct(262144, 1).b == 21
    assert time.process_time() - start < 0.5


def columns_digest(H: TestMatrix) -> str:
    masks = " ".join(format(c.mask, "x") for c in H.columns)
    return hashlib.sha256(masks.encode()).hexdigest()


def instance_digest(poly: SparsePolynomial) -> str:
    items = " ".join(f"{k.mask:x}:{v.hex()}" for k, v in poly.entries.items())
    return hashlib.sha256(items.encode()).hexdigest()


# (n, d): (disjunct width, its digest, list-design width, its digest), the
# list design seeded 40000 + 97n + d as the runners seed it; the disjunct
# designs are the Reed-Solomon codes at the Kautz-Singleton point count
# (GF(11) at (1024, 4), GF(13) at (2048, 4), GF(8) at (4096, 2), GF(16)
# at (4096, 4), and GF(32) with the point at infinity at (4096, 16)), and
# at d = 1 the Sperner design, which is the list design there too.
# The list designs draw base-(d + 1) words: base 2 rejects no word, base 3
# rejects 34 % and base 5 19 %
DESIGNS = {
    (1024, 4): (
        99, "5eeb0912038a69fbee510841ff480cbbdaa76784dc64eecc021afd9a91752cf1",
        38, "e219b7ab8604d487c2eb7cbf4969d7d6c72f6d3cec00be462dc40318333b1af0",
    ),
    (2048, 4): (
        117, "a30976a194e117fac4b4cfdbe472a76b0c1fdb843c0533e3e1d354dc657df6f0",
        44, "fbfccf8ec216949fc0c074c56a679f3c034d1287812c76f6d334f60325b8ebc5",
    ),
    (4096, 1): (
        15, "5e6624ac93a17206548d15526a688827d3cb28f00e72eb1d6b827de4cf972e09",
        15, "5e6624ac93a17206548d15526a688827d3cb28f00e72eb1d6b827de4cf972e09",
    ),
    (4096, 2): (
        56, "bb29033ada87602352be3c5ee17450c080445ca48b7c9a41ee8f695b2f2d25ff",
        31, "5d31f60a64900753f673423433e9f2ca8f76be3e4fd2808352ef12695082f2a6",
    ),
    (4096, 4): (
        144, "d6a702160754275ffc401358286166a8bdbd65c5b19ebe9be58456a9481786d3",
        51, "4b86db2bf946ff8b488781e9c12d0b23b4fbd0658111cd86f2c027c271984241",
    ),
    (4096, 16): (
        1028, "f5a30d5ceb234df7d83b9aa57f82768a3f01134d2bc03eda02ad81d65cb9eb1f",
        142, "092f81ac78f28ad822387f7398aea63c5fe067cfca5a5d037a2f8338fb0a6f16",
    ),
}


@pytest.mark.parametrize("n, d", sorted(DESIGNS))
def test_benchmark_size_designs_are_pinned(n, d):
    disjunct = construct_disjunct(n, d)
    listed = construct_list_disjunct(n, d, 40_000 + 97 * n + d)
    got = (disjunct.b, columns_digest(disjunct), listed.b, columns_digest(listed))
    assert got == DESIGNS[n, d]


INSTANCES = [
    "a3e8a5e2189893523f16a7f5e88dce438b21718c545470ccbe23ac792c4f4ee5",
    "bdc01c389f631aaefcc94f1b0c248283072b324fc10777bd1cdaa77c298e0e17",
    "c64939e3e175aecfb55744ef869a53d5d0efcfdd598c8ed29789ac1eabf8a97b",
    "5cdd359810d475fd3a28a548eda6f5f0de52a9e746208cbb76881b5e02bc2f5a",
    "fb7a9301ef0da6931e46f9fd08d0d790b443329d3c24f7fb55b24af34a0f6c54",
]


@pytest.mark.parametrize("seed", range(5))
def test_benchmark_size_instances_are_pinned(seed):
    assert instance_digest(generate_synthetic(4096, 8, 4, seed)) == INSTANCES[seed]
