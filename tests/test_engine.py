"""The depth-first engine against its previous version, and its schedule.

reference_engine keeps the engine as it was before residual lists and
ready-driven starts, stepping GbsaTree.advance.  On the same instance
fasmt must make the same queries, write the same transcript and recover
the same map to the last digit, or raise the same degree overflow at the
same label and counts.  Within the runners' preconditions hybrid must
make the same queries and recover the same map (to the last digit in
integer mode), and its phase 2 may only take fewer rounds, since a bucket
no longer waits for a whole antichain layer.  Phase 2's rounds must equal
those reference_engine.phase_two_rounds counts from its transcript.
"""

from __future__ import annotations

import io
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sparsemobius import fasmt
from sparsemobius.core import BitVector, Label, TestMatrix
from sparsemobius.errors import DimensionError, InfeasiblePrefixError, ReconstructionError
from sparsemobius.fasmt import depth_first_search, fasmt_run
from sparsemobius.grouptest import GbsaTree, construct_disjunct, construct_list_disjunct
from sparsemobius.harness import generate_synthetic
from sparsemobius.hybrid import hybrid_run
from sparsemobius.oracle import CountingOracle, SparsePolynomial, SparsePolyOracle
from sparsemobius.pasmt import pasmt_run, refine_levels
from sparsemobius.reference import check_subset_sum_independence
from sparsemobius.rng import SplitMix64, random_subset

import reference_engine
from envelope import probe_tests
from weights import integer_weights


def oracle_for(poly: SparsePolynomial) -> CountingOracle:
    return CountingOracle(SparsePolyOracle(poly))


def searching():
    """The engine with its probe lookup patched out: every bucket that the
    start pass does not finish goes through the plain search."""
    return mock.patch.object(fasmt, "_probe_tests", lambda free, d: ())


@st.composite
def instances(draw, excess=0):
    """(truth, d, tau): supports of weight at most d, or at most d + excess
    for a drawn excess, float weights at a small tau or signed integer
    weights at tau = 0."""
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, min(4, n)))
    support = st.lists(st.integers(0, n - 1), max_size=d + draw(st.integers(0, excess))).map(
        lambda coords: sum(1 << i for i in set(coords))
    )
    masks = draw(st.lists(support, unique=True, max_size=12))
    if draw(st.booleans()):
        weights, tau = st.integers(-9, 9).filter(bool), 0.0
    else:
        weights = st.floats(-4.0, 4.0, allow_nan=False).filter(lambda w: abs(w) > 1e-3)
        tau = 1e-9
    truth = SparsePolynomial(n, {BitVector(n, m): draw(weights) for m in masks})
    return truth, d, tau


def run(runner, truth, d, tau, *args):
    f = oracle_for(truth)
    sink = io.StringIO()
    try:
        got = runner(f, truth.n, d, *args, tau, sink)
    except ReconstructionError as err:
        got = (str(err), err.label)
    else:
        got = sorted((k.mask, repr(v)) for k, v in got.entries.items())
    return got, f.query_count, f.round_count, sink.getvalue()


@settings(max_examples=300, deadline=None)
@given(instances(excess=2))
def test_fasmt_matches_the_reference_engine(case):
    # supports of weight d+1..d+2 overflow the tree: the message, the label
    # and the counts at the raise must match the GbsaTree-driven engine's
    truth, d, tau = case
    assert run(fasmt_run, truth, d, tau) == run(reference_engine.fasmt_run, truth, d, tau)


@settings(max_examples=300, deadline=None)
@given(instances(), st.integers(0, 2**16))
def test_hybrid_matches_the_reference_engine(case, seed):
    truth, d, tau = case
    got, queries, rounds, _ = run(hybrid_run, truth, d, tau, seed)
    want, want_queries, want_rounds, _ = run(reference_engine.hybrid_run, truth, d, tau, seed)
    if not check_subset_sum_independence(truth, tau):
        # a cancelling subset drops coefficients from their bucket, and which
        # bucket's search then stumbles on them depends on the schedule
        return
    assert queries == want_queries
    assert rounds <= want_rounds
    if tau == 0.0:
        assert got == want
    else:
        # a bucket's queries subtract the same coefficients, but the buckets
        # below it may finish in another order, so a float sum may differ in
        # its last digit
        assert [k for k, _ in got] == [k for k, _ in want]
        assert all(abs(float(a) - float(b)) <= 1e-9 for (_, a), (_, b) in zip(got, want))


@settings(max_examples=200, deadline=None)
@given(instances(), st.integers(0, 2**16), st.booleans())
def test_no_engine_query_point_is_its_buckets_candidate_set(case, seed, listed):
    # a test that misses the candidate set would ask the set itself, whose
    # value the bucket's sum already gives
    truth, d, tau = case
    n = truth.n
    design = construct_list_disjunct(n, d, seed) if listed else TestMatrix(n, ())
    f = oracle_for(truth)
    leaves = refine_levels(f, design, tau)
    sink = io.StringIO()
    try:
        depth_first_search(f, leaves, d, tau, sink)
    except ReconstructionError:
        pass  # a cancelling subset can end a search; its earlier points count
    points = {}
    for line in sink.getvalue().splitlines():
        label, x = line.split("\t")[:2]
        points[label] = BitVector.from01(x).mask
    frees = {label.to01(): free for label, _, free, _ in leaves}
    for label, x in points.items():
        # a node's candidate set is the point its nearest asked 0-step
        # queried, or its leaf's candidate set
        free = frees[label[: design.b]]
        for k in range(len(label) - 1, design.b - 1, -1):
            if label[k] == "0" and label[:k] in points:
                free = points[label[:k]]
                break
        assert x & ~free == 0 and x != free, (label, x, free)


def tree_walk(d, label, free, supports):
    """The splitting tree walked over one bucket as GbsaTree.advance steps
    it: (query points in order, recovered map, overflow label or None).

    supports maps each support mask in the bucket to its coefficient; all
    are positive, so a child is searched iff some support falls in it.  A
    test whose point equals the candidate set is not asked: its 0-outcome
    is taken as is.  The 0-child is walked before the 1-child."""
    tree = GbsaTree(free, d)
    points: list[int] = []
    got: dict[int, int] = {}
    # pending 1-children: parent state (None for the root), label,
    # candidate set and the supports that fall in the child
    pending = [(None, label, free, list(supports))]
    while pending:
        state, label, free, inside = pending.pop()
        try:
            state = tree.start() if state is None else tree.advance(state, 1)
            while state.test is not None:
                point = free & ~state.test
                if point != free:
                    points.append(point)
                    hit = [k for k in inside if k & state.test]
                    inside = [k for k in inside if not k & state.test]
                    if hit:
                        one = Label(label.n + 1, label.mask | 1 << label.n)
                        pending.append((state, one, free, hit))
                    free = point
                label = Label(label.n + 1, label.mask)
                if not inside:
                    break
                state = tree.advance(state, 0)
            else:
                assert inside == [state.found]
                got[state.found] = supports[state.found]
        except InfeasiblePrefixError:
            return points, got, label
    return points, got, None


@st.composite
def scattered_buckets(draw):
    """(n, d, label, candidate set, supports): a candidate set that is not
    one run of coordinates, and supports inside it with positive integer
    weights, some of weight above d."""
    n = draw(st.integers(3, 40))
    coords = draw(st.lists(st.integers(0, n - 1), min_size=2, unique=True))
    free = sum(1 << c for c in coords)
    run = free >> (free & -free).bit_length() - 1
    assume(run & (run + 1))  # not contiguous
    d = draw(st.integers(1, 4))
    support = st.lists(st.sampled_from(coords), max_size=d + 2).map(
        lambda picked: sum(1 << c for c in set(picked))
    )
    masks = draw(st.lists(support, unique=True, min_size=1, max_size=8))
    supports = {m: draw(st.integers(1, 9)) for m in masks}
    length = draw(st.integers(0, 6))
    label = Label(length, draw(st.integers(0, (1 << length) - 1)))
    return n, d, label, free, supports


@settings(max_examples=300, deadline=None)
@given(scattered_buckets())
def test_the_engine_walks_the_tree_over_a_scattered_candidate_set(case):
    # the tree over a non-contiguous candidate set often halves its window
    # by _lowest's bisection rather than its fast path
    n, d, label, free, supports = case
    points, want, overflow = tree_walk(d, label, free, supports)
    truth = SparsePolynomial(n, {BitVector(n, k): c for k, c in supports.items()})
    f = oracle_for(truth)
    sink = io.StringIO()
    bucket = (label, sum(supports.values()), free, ())
    try:
        with searching():  # the plain search walks the tree
            got = depth_first_search(f, [bucket], d, 0.0, sink)
    except ReconstructionError as err:
        assert overflow is not None and err.label == overflow
        assert str(err) == (
            f"degree overflow at bucket {overflow.to01()!r}: "
            f"outcomes imply more than d={d} defectives"
        )
    else:
        assert overflow is None
        assert got == {BitVector(n, k): c for k, c in want.items()}
    asked = [BitVector.from01(line.split("\t")[1]).mask for line in sink.getvalue().splitlines()]
    assert asked == points
    assert f.query_count == f.round_count == len(points)


@pytest.mark.parametrize(
    "n, s, d, seed",
    # at (32, 20, 3, 68) two probes fall back to a search
    [(32, 12, 3, 61), (64, 16, 2, 62), (128, 16, 4, 63), (256, 40, 2, 64), (32, 20, 3, 68)],
)
def test_phase_two_waits_only_for_the_leaves_a_point_needs(n, s, d, seed):
    truth = generate_synthetic(n, s, d, seed=seed)
    design = construct_list_disjunct(n, d, seed)
    phase1 = oracle_for(truth)
    leaves = refine_levels(phase1, design, 1e-9)
    f = oracle_for(truth)
    sink = io.StringIO()
    hybrid_run(f, n, d, seed, transcript=sink, design=design)
    # phase-2 lines extend a full-length leaf label; phase-1 lines are shorter
    lines = [
        (label, BitVector.from01(x).mask)
        for label, x, _ in (line.split("\t") for line in sink.getvalue().splitlines())
        if len(label) >= design.b
    ]
    assert len(lines) == f.query_count - phase1.query_count
    index = {label.to01(): i for i, (label, *_) in enumerate(leaves)}
    last = {label[: design.b]: at for at, (label, _) in enumerate(lines)}
    for at, (label, x) in enumerate(lines):
        # a line whose point misses a below leaf's candidate set was
        # settled once that leaf finished
        for j in leaves[index[label[: design.b]]][3]:
            below = leaves[j][0].to01()
            if leaves[j][2] & ~x and below in last:
                assert last[below] < at, (label, below)
    assert f.round_count - phase1.round_count == reference_engine.phase_two_rounds(
        leaves, lines, d
    )
    assert any(below for *_, below in leaves)


def shared_rounds(truth, buckets, d):
    """buckets through the engine at tau = 0, searched, not probed: (map,
    queries, rounds, transcript labels)."""
    f = oracle_for(truth)
    sink = io.StringIO()
    with searching():
        got = depth_first_search(f, buckets, d, 0.0, sink)
    labels = [line.split("\t")[0] for line in sink.getvalue().splitlines()]
    return got, f.query_count, f.round_count, labels


@pytest.mark.parametrize(
    "below, low_support",
    [("00110000", "00010000"), ("01100000", "00100000")],
    ids=["inside", "cut"],
)
def test_a_point_waits_only_for_a_leaf_below_whose_candidates_it_cuts(below, low_support):
    # B2 holds x1*x4 over {1, 2, 3, 4}; its first point, {3, 4}, is the
    # complement of its first block.  B1 lies below it and holds one
    # coefficient over a candidate set that this point holds ({3, 4}: B1's
    # sum is subtracted and the two run side by side) or cuts ({2, 3}:
    # B2's value waits until B1 finishes)
    n, d = 8, 2
    low_support, high_support = BitVector.from01(low_support), BitVector.from01("10010000")
    low = (Label.from01("0"), 2, BitVector.from01(below).mask, ())
    high = (Label.from01("1"), 5, BitVector.from01("11110000").mask, [0])
    _, low_queries, low_rounds, _ = shared_rounds(SparsePolynomial(n, {low_support: 2}), [low], d)
    _, high_queries, high_rounds, _ = shared_rounds(
        SparsePolynomial(n, {high_support: 5}), [high[:3] + ((),)], d
    )
    assert low_rounds > 1 and high_rounds > 1
    truth = SparsePolynomial(n, {low_support: 2, high_support: 5})
    got, queries, rounds, labels = shared_rounds(truth, [low, high], d)
    assert got == truth.entries
    assert queries == low_queries + high_queries
    if below == "00110000":
        assert rounds == max(low_rounds, high_rounds)
    else:
        # B2's first value settles in B1's last round
        assert rounds == low_rounds + high_rounds - 1
        first_high = min(at for at, label in enumerate(labels) if label.startswith("1"))
        last_low = max(at for at, label in enumerate(labels) if label.startswith("0"))
        assert last_low < first_high


def test_a_point_over_a_partly_found_leaf_subtracts_its_sum_once():
    # B1 holds x3 and x4 over {3, 4}: it finds x4 in round 2 and x3 in
    # round 3.  B2 above it holds x2 over {1, 2, 3, 4}.  Its round-2 point
    # {2, 3, 4} holds B1's candidates while B1 is unfinished, so f = 10
    # there less B1's sum 5 settles it; the x4 already found is part of
    # that sum and is not subtracted again
    n, d = 6, 2
    truth = SparsePolynomial(
        n,
        {
            BitVector.from01("001000"): 2,
            BitVector.from01("000100"): 3,
            BitVector.from01("010000"): 5,
        },
    )
    buckets = [
        (Label.from01("0"), 5, BitVector.from01("001100").mask, ()),
        (Label.from01("1"), 5, BitVector.from01("111100").mask, [0]),
    ]
    f = oracle_for(truth)
    sink = io.StringIO()
    with searching():
        assert depth_first_search(f, buckets, d, 0.0, sink) == truth.entries
    rows = [line.split("\t") for line in sink.getvalue().splitlines()]
    # B1's round-2 line, where x4 is found, comes before B2's
    assert rows[2:4] == [["00", "000000", "0"], ["11", "011100", "5"]]
    assert (f.query_count, f.round_count) == (6, 3)


def test_a_probe_above_a_search_is_decoded_in_the_round_the_search_finishes():
    # the searched leaf holds x2 over {1, 2}, in 2 queries; the probed leaf
    # above it holds x3 over {1, 2, 3}.  Its points go in round 1: {1, 2}
    # holds the searched leaf's candidates and settles at once, {2, 3} and
    # {1, 3} wait for the search to finish, and the probe is decoded in
    # that round
    n, d = 8, 1
    truth = SparsePolynomial(
        n, {BitVector.from01("01000000"): 2, BitVector.from01("00100000"): 3}
    )
    buckets = [
        (Label(0), 2, BitVector.from01("11000000").mask, ()),
        (Label.from01("1"), 3, BitVector.from01("11100000").mask, [0]),
    ]
    f = oracle_for(truth)
    sink = io.StringIO()
    assert depth_first_search(f, buckets, d, 0.0, sink) == truth.entries
    assert (f.query_count, f.round_count) == (2 + 3, 2)
    rows = [line.split("\t") for line in sink.getvalue().splitlines()]
    # the search's two lines, then the probe's, written when it is decoded
    assert [row[1] for row in rows] == ["00000000", "01000000", "01100000", "10100000", "11000000"]
    assert [row[2] for row in rows[2:]] == ["3", "3", "0"]


def test_a_chain_of_probed_leaves_is_released_without_recursion():
    # leaf 0, searched, holds x2 over {1, 2} in 2 queries; leaf k of the
    # 1,999 probed ones holds x(k+2) over {k+1, k+2}, above leaf k-1, whose
    # candidate set both its points cut.  Every probe point goes in round
    # 1, and the whole chain is released when leaf 0 finishes, in round 2
    n = 2001
    weight = [1 + k % 7 for k in range(n - 1)]
    truth = SparsePolynomial(
        n, {BitVector.from_coords(n, [k + 2]): weight[k] for k in range(n - 1)}
    )
    buckets = [(Label(0), weight[0], BitVector.from_coords(n, [1, 2]).mask, ())]
    for k in range(1, n - 1):
        pair = BitVector.from_coords(n, [k + 1, k + 2]).mask
        buckets.append((Label.from01("1"), weight[k], pair, [k - 1]))
    f = oracle_for(truth)
    assert depth_first_search(f, buckets, 1, 0.0) == truth.entries
    assert (f.query_count, f.round_count) == (4000, 2)


def probed(truth, bucket, d, probe=True):
    """One bucket through the engine at tau = 0, probed first or, with
    probe False, searched: (map, queries, rounds, transcript rows)."""
    f = oracle_for(truth)
    sink = io.StringIO()
    with mock.patch.object(fasmt, "_probe_tests", fasmt._probe_tests if probe else lambda *_: ()):
        got = depth_first_search(f, [bucket], d, 0.0, sink)
    rows = [line.split("\t") for line in sink.getvalue().splitlines()]
    return got, f.query_count, f.round_count, rows


def test_a_probe_finishes_a_one_coefficient_leaf_in_one_round():
    # C = {2, 3, 5, 6} holds the support {2, 5}: the removals of 2 and 5
    # leave residual 0, those of 3 and 6 the leaf's sum
    truth = SparsePolynomial(8, {BitVector.from01("01001000"): 4})
    bucket = (Label.from01("1"), 4, BitVector.from01("01101100").mask, ())
    got, queries, rounds, rows = probed(truth, bucket, 2)
    assert got == truth.entries
    assert (queries, rounds) == (4, 1)
    assert rows == [
        ["1", "00101100", "0"],
        ["1", "01001100", "4"],
        ["1", "01100100", "0"],
        ["1", "01101000", "4"],
    ]
    # the search takes a round per query
    got, queries, rounds, _ = probed(truth, bucket, 2, probe=False)
    assert got == truth.entries
    assert queries == rounds == 6


def test_a_one_candidate_leaf_under_a_one_outcome_asks_nothing():
    # the 1-outcome keeps the empty support out of the leaf, so its one
    # candidate, coordinate 3, is its support: the probe's one point, the
    # empty set, would read a residual 0 whatever the values
    truth = SparsePolynomial(8, {BitVector.from01("00100000"): 4})
    bucket = (Label.from01("1"), 4, BitVector.from01("00100000").mask, ())
    assert probed(truth, bucket, 1) == (truth.entries, 0, 0, [])


@pytest.mark.parametrize(
    "entries",
    [{"00000000": 5, "00100000": 4}, {"00000000": 5}, {"00100000": 4}],
    ids=["both", "constant", "monomial"],
)
def test_a_one_candidate_leaf_under_no_one_outcome_is_probed(entries):
    # the leaf labelled 0 may hold the constant term as well as x3's
    # coefficient, and its one point, the empty set, tells them apart
    truth = SparsePolynomial(8, {BitVector.from01(k): v for k, v in entries.items()})
    bucket = (Label.from01("0"), sum(entries.values()), BitVector.from01("00100000").mask, ())
    got, queries, rounds, rows = probed(truth, bucket, 1)
    assert got == truth.entries
    assert rows[0][:2] == ["0", "00000000"]
    assert (queries, rounds) == ((2, 2) if len(entries) == 2 else (1, 1))


def test_a_leaf_is_probed_only_under_an_outcome():
    truth = SparsePolynomial(8, {BitVector.from01("01001000"): 4})
    free = BitVector.from01("01101100").mask
    # the root bucket is searched, as a leaf is with the probe patched out
    searched = probed(truth, (Label(0), 4, free, ()), 2, probe=False)
    assert probed(truth, (Label(0), 4, free, ()), 2) == searched
    assert searched[1:3] == (6, 6)


def first_steps(monkeypatch) -> list:
    """Wraps the engine's walker, which it looks up as a module global, and
    returns the list that gathers each walk's first step, None for a walk
    that stops without a step."""
    steps = []
    search = fasmt._search

    def walk(*args):
        inner = search(*args)
        step = next(inner, None)
        steps.append(step)
        while step is not None:
            try:
                step = inner.send((yield step))
            except StopIteration:
                return

    monkeypatch.setattr(fasmt, "_search", walk)
    return steps


def is_a_query(step) -> bool:
    """A search's one point, or a probe's nonempty list of points."""
    if type(step) is list:
        return bool(step) and all(type(x) is BitVector for x in step)
    return type(step) is BitVector


# 5 + 4*x3 + 3*x1*x2 over n = 8, bucketed by two tests: the constant term
# in a leaf with no candidate, a leaf whose sum is 0, x3 alone under a
# 1-outcome, and x1*x2 in a leaf of four candidates
QUERY_FREE = [
    (Label.from01("00"), 5, 0, ()),
    (Label.from01("01"), 0, BitVector.from01("00010000").mask, (0,)),
    (Label.from01("10"), 4, BitVector.from01("00100000").mask, (0,)),
]
SEARCHED = (Label.from01("11"), 3, BitVector.from01("11001100").mask, (0, 1, 2))
FIVE_FOUR_THREE = SparsePolynomial(
    8,
    {
        BitVector.from01("00000000"): 5,
        BitVector.from01("00100000"): 4,
        BitVector.from01("11000000"): 3,
    },
)


def test_the_start_pass_finishes_the_buckets_that_need_no_query(monkeypatch):
    steps = first_steps(monkeypatch)
    f = oracle_for(FIVE_FOUR_THREE)
    got = depth_first_search(f, QUERY_FREE, 2, 0.0)
    assert got == {BitVector.from01("00000000"): 5, BitVector.from01("00100000"): 4}
    assert (f.query_count, f.round_count) == (0, 0)
    assert steps == []


@pytest.mark.parametrize(
    "probe, queries, rounds", [(True, 4, 1), (False, 4, 4)], ids=["probed", "searched"]
)
def test_every_walk_asks_on_its_first_step(monkeypatch, probe, queries, rounds):
    # the one walk, x1*x2's, asks the probe's four points or the search's
    # first point; x3's leaf, one candidate under a 1-outcome, starts none
    steps = first_steps(monkeypatch)
    f = oracle_for(FIVE_FOUR_THREE)
    if not probe:
        monkeypatch.setattr(fasmt, "_probe_tests", lambda free, d: ())
    got = depth_first_search(f, [*QUERY_FREE, SEARCHED], 2, 0.0)
    assert got == FIVE_FOUR_THREE.entries
    assert (f.query_count, f.round_count) == (queries, rounds)
    assert len(steps) == 1
    assert all(is_a_query(step) for step in steps)


@pytest.mark.parametrize("n, s, d, seed", [(64, 12, 1, 71), (32, 20, 3, 68), (128, 16, 2, 72)])
def test_every_walk_of_a_hybrid_run_asks_on_its_first_step(monkeypatch, n, s, d, seed):
    # the constant term's leaf has no candidate and starts no walk; at d = 1
    # every leaf is that one or one candidate under a 1-outcome
    entries = dict(integer_weights(generate_synthetic(n, s, d, seed)).entries)
    entries[BitVector(n, 0)] = 3
    truth = SparsePolynomial(n, entries)
    steps = first_steps(monkeypatch)
    assert hybrid_run(oracle_for(truth), n, d, seed, 0.0) == truth
    assert all(is_a_query(step) for step in steps)
    assert (d == 1) == (not steps)


def test_a_failed_probe_searches_the_candidates_it_did_not_rule_out():
    # two coefficients share the leaf: the removals of 1, 2 and 3 leave 3,
    # 2 and 2, neither 0 nor the sum 5, and those of 4 and 5 leave 5, so
    # the leaf is searched over {1, 2, 3} in the next round, as a leaf over
    # that set is searched
    truth = SparsePolynomial(
        8, {BitVector.from01("10000000"): 2, BitVector.from01("01100000"): 3}
    )
    label = Label.from01("01")
    got, queries, rounds, rows = probed(truth, (label, 5, BitVector.from01("11111000").mask, ()), 2)
    assert got == truth.entries
    assert [row[2] for row in rows[:5]] == ["3", "2", "2", "5", "5"]
    _, search_queries, search_rounds, search_rows = probed(
        truth, (label, 5, BitVector.from01("11100000").mask, ()), 2, probe=False
    )
    assert rows[5:] == search_rows
    assert (queries, rounds) == (5 + search_queries, 1 + search_rounds)


def test_a_failed_probe_settles_its_search_against_the_leaf_below():
    # leaf 0, searched, holds x2 over {1, 2} in 2 queries; the probed leaf
    # above it holds x2*x3 and x4 over {1, 2, 3, 4}.  The probe points that
    # cut {1, 2} wait for leaf 0, so the probe is decoded in round 2, after
    # its round.  It rules out only coordinate 1, and its search over
    # {2, 3, 4} starts in round 3 with each value settled against leaf 0:
    # it asks what a leaf over {2, 3, 4} asks of f minus x2
    n, d = 8, 2
    x2, x23, x4 = (BitVector.from01(k) for k in ("01000000", "01100000", "00010000"))
    buckets = [
        (Label(0), 2, BitVector.from01("11000000").mask, ()),
        (Label.from01("1"), 7, BitVector.from01("11110000").mask, [0]),
    ]
    truth = SparsePolynomial(n, {x2: 2, x23: 3, x4: 4})
    f = oracle_for(truth)
    sink = io.StringIO()
    assert depth_first_search(f, buckets, d, 0.0, sink) == truth.entries
    rows = [line.split("\t") for line in sink.getvalue().splitlines()]
    assert [row[2] for row in rows[2:6]] == ["7", "4", "4", "3"]
    rest = SparsePolynomial(n, {x23: 3, x4: 4})
    bucket = (Label.from01("1"), 7, BitVector.from01("01110000").mask, ())
    _, queries, rounds, search_rows = probed(rest, bucket, d, probe=False)
    assert rows[6:] == search_rows
    assert (f.query_count, f.round_count) == (2 + 4 + queries, 2 + rounds)


def test_a_probe_past_d_defectives_names_its_leaf():
    # the support {1, 3, 4} is past d = 2: the probe's five points, asked
    # in one round, show three defectives, and the error names the leaf
    truth = SparsePolynomial(8, {BitVector.from01("10110000"): 1})
    f = oracle_for(truth)
    bucket = (Label.from01("0"), 1, BitVector.from01("11110100").mask, ())
    with pytest.raises(ReconstructionError) as info:
        depth_first_search(f, [bucket], 2, 0.0)
    assert info.value.label == Label.from01("0")
    assert str(info.value) == (
        "degree overflow at bucket '0': outcomes imply more than d=2 defectives"
    )
    assert (f.query_count, f.round_count) == (5, 1)


# 20 candidates over n = 24, not one run of coordinates: at d = 2 the
# probe asks construct_disjunct(20, 2)'s 15 tests, not the 20 of the identity
WIDE = BitVector.from_coords(
    24, [1, 2, 4, 5, 6, 8, 9, 10, 11, 13, 14, 15, 16, 18, 19, 20, 21, 22, 23, 24]
)


def design_points(free: int, d: int) -> list[int]:
    """The probe's points over free: free minus each test of
    construct_disjunct(|free|, d), as the envelope maps it."""
    return [free & ~test for test in probe_tests(free, d)]


def test_a_probe_finishes_a_wide_one_coefficient_leaf_in_one_round():
    support = BitVector.from_coords(24, [5, 19])
    truth = SparsePolynomial(24, {support: 6})
    assert construct_disjunct(20, 2).b == 15
    got, queries, rounds, rows = probed(truth, (Label.from01("10"), 6, WIDE.mask, ()), 2)
    assert got == truth.entries
    assert (queries, rounds) == (15, 1)
    points = design_points(WIDE.mask, 2)
    assert [BitVector.from01(x).mask for _, x, _ in rows] == points
    assert [v for *_, v in rows] == ["0" if support.mask & ~x else "6" for x in points]
    assert {label for label, *_ in rows} == {"10"}


def test_a_wide_failed_probe_searches_every_candidate():
    # x5*x19 and x9: the probe reads a residual that is neither 0 nor the
    # sum, and some test of four coordinates reads the sum; a wide test
    # rules nothing out, since cancelling coefficients can meet it, so the
    # search goes over all 20 candidates, from round 2 on
    supports = {BitVector.from_coords(24, [5, 19]): 6, BitVector.from_coords(24, [9]): 2}
    truth = SparsePolynomial(24, supports)
    label = Label.from01("10")
    got, queries, rounds, rows = probed(truth, (label, 8, WIDE.mask, ()), 2)
    assert got == truth.entries
    values = [v for *_, v in rows[:15]]
    assert "2" in values and "8" in values
    assert all(test.bit_count() == 4 for test in probe_tests(WIDE.mask, 2))
    _, search_queries, search_rounds, search_rows = probed(
        truth, (label, 8, WIDE.mask, ()), 2, probe=False
    )
    assert rows[15:] == search_rows
    assert (queries, rounds) == (15 + search_queries, 1 + search_rounds)


def test_a_wide_probe_past_d_defectives_names_its_leaf():
    # the weight-3 support leaves every residual 0 or the sum, and the
    # design's decode gives a support past d = 2
    truth = SparsePolynomial(24, {BitVector.from_coords(24, [2, 13, 22]): 1})
    f = oracle_for(truth)
    with pytest.raises(ReconstructionError) as info:
        depth_first_search(f, [(Label.from01("01"), 1, WIDE.mask, ())], 2, 0.0)
    assert info.value.label == Label.from01("01")
    assert str(info.value) == (
        "degree overflow at bucket '01': outcomes imply more than d=2 defectives"
    )
    assert (f.query_count, f.round_count) == (15, 1)


def test_a_failed_probes_search_names_the_child_where_its_tree_ran_out():
    # 2*x1*x2 + 3*x3 over {1, 2, 3, 4} at d = 1: the probe reads 3, 3, 2
    # and 5 in round 1, rules out only coordinate 4 and searches {1, 2, 3}
    # in the same walk, whose splitting tree finds x1*x2 past d = 1 at the
    # child labelled 111111, not at the leaf
    truth = SparsePolynomial(
        8, {BitVector.from01("11000000"): 2, BitVector.from01("00100000"): 3}
    )
    f = oracle_for(truth)
    sink = io.StringIO()
    bucket = (Label.from01("1"), 5, BitVector.from01("11110000").mask, ())
    with pytest.raises(ReconstructionError) as info:
        depth_first_search(f, [bucket], 1, 0.0, sink)
    assert info.value.label == Label.from01("111111")
    assert str(info.value) == (
        "degree overflow at bucket '111111': outcomes imply more than d=1 defectives"
    )
    rows = [line.split("\t") for line in sink.getvalue().splitlines()]
    assert [row[2] for row in rows[:4]] == ["3", "3", "2", "5"]
    assert (f.query_count, f.round_count) == (9, 6)


def planted_cancellation(seed: int) -> SparsePolynomial:
    """generate_synthetic(64, 16, 3, seed) at integer weights, plus a, b
    and -(a + b) (a and b each 1 + below(8)) on three fresh supports of
    weight 1 to 3, drawn from SplitMix64(10**6 + seed)."""
    n = 64
    entries = dict(integer_weights(generate_synthetic(n, 16, 3, seed)).entries)
    rng = SplitMix64(10**6 + seed)
    a, b = 1 + rng.below(8), 1 + rng.below(8)
    for weight in (a, b, -(a + b)):
        support = BitVector.from_coords(n, random_subset(rng, n, 1 + rng.below(3)))
        while support in entries:
            support = BitVector.from_coords(n, random_subset(rng, n, 1 + rng.below(3)))
        entries[support] = weight
    return SparsePolynomial(n, entries)


@settings(deadline=None)
@given(st.integers(0, 2**32))
@example(3808)  # the probe recovers the map that the search gets wrong
@example(8915)  # both maps are wrong, the probe's by two supports fewer
@example(22536)  # a wide absent test meets both cancelling supports
@example(50285)  # a leaf that sums to 0 vanishes; the search raises
def test_a_probe_returns_no_map_the_search_would_not_under_cancellation(seed):
    # a cancelling subset can give a several-coefficient leaf the residuals
    # of one coefficient; the probe must then return no map where the
    # search raises, and no wrong map where the search's is exact
    truth, d = planted_cancellation(seed), 3
    design = construct_list_disjunct(truth.n, d, seed)

    def recovered(run):
        f = oracle_for(truth)
        try:
            return run(f)
        except ReconstructionError:
            return None

    got = recovered(lambda f: hybrid_run(f, truth.n, d, seed, 0.0, design=design).entries)
    with searching():
        searched = recovered(
            lambda f: depth_first_search(f, refine_levels(f, design, 0.0), d, 0.0)
        )
    if got is not None:
        assert searched is not None
        assert got == truth.entries or searched != truth.entries


@pytest.mark.parametrize(
    "run",
    [
        lambda f: pasmt_run(f, construct_disjunct(9, 2), 2),
        lambda f: fasmt_run(f, 9, 2),
        lambda f: hybrid_run(f, 9, 2, seed=0),
    ],
    ids=["pasmt", "fasmt", "hybrid"],
)
def test_each_runner_names_the_oracle_n_and_the_expected_n_before_any_query(run):
    f = oracle_for(SparsePolynomial(8, {BitVector.from_coords(8, [3]): 1.0}))
    with pytest.raises(DimensionError, match=r"^oracle is over n=8, expected 9$"):
        run(f)
    assert f.query_count == 0
