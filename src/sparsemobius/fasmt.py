"""Depth-first sparse reconstruction with fully sequential queries.

Instead of refining every bucket per matrix column, this walker descends
one bucket at a time, asking the splitting tree of the adaptive group
tester which test vector to apply next.  A single evaluation of the
residual function (the oracle minus everything already discovered) splits
the bucket into its 0- and 1-children.  When the tree terminates, the
bucket's label pins a unique support of weight at most d and its sum is
the coefficient.

One engine runs these searches for both this runner and the hybrid one.
Each bucket's search is a generator: it yields each query point and is
sent the oracle's value there, settled against the other buckets below
it, keeping its stack, its finds and its splitting tree in locals.  GbsaTree cuts the candidate set into blocks;
the search steps the tree by GbsaTree's rule in five integers (block
index, remaining, window, found and pending test), with no call per
query.  The search is one loop over a stack whose first entry is the
bucket, at the tree's root: it pops an entry, then settles the tree and
asks until the entry records its support or its 0-child vanishes.  A
child whose sum vanishes is never pushed.  A nonzero 0-child is split at
once and a nonzero 1-child pushed, to be popped once the 0-child's
subtree is done, so a bucket's descendants are split in lexicographic
label order.  A bucket's splitting tree ranges over the candidate set
the level loop hands it, the only coordinates its supports can use.  A
child carries its label as (length, mask) integers, its candidate set,
four of the five integers of its parent's tree node (a pending 1-child
resumes with its parent's test as its window), and a residual list: the
search's own finds whose supports lie inside the child's candidate set,
in discovery order, the only ones of its own that can lie below its
query points.  The coefficients of every other bucket are the engine's
to subtract (see depth_first_search).  A query point is the candidate
set minus the pending test, one big-integer operation besides the
complement of the test; it is the 0-child's candidate set, and the
1-child keeps its parent's.  The 0-child keeps the pairs subtracted at
its parent's query; the 1-child extends its parent's list by whatever
its 0-sibling's subtree found.  A retested block can lie wholly outside
the candidate set once 0-outcomes have taken its coordinates out.  Such
a test is not asked: every support in the bucket avoids it, so the
0-child is the whole bucket and the 1-child is empty.  It takes the same
outcome-0 step as a nonzero 0-child, advancing the tree and appending a
0 to the label, with no query and no transcript line.

Searches of several buckets run side by side, one query per bucket per
adaptive round, and every bucket starts in the first round.  A raw value
never goes stale, so a bucket's query is asked at once and its value
waits only for the buckets below it whose coefficients it cannot yet
account for: those not finished whose candidate sets the query point cuts
(see depth_first_search).  A search asking alone with no bucket below
it is driven with single evaluations: each is one query and one round,
as a batch of one is, so the counts do not change.  A leaf under at least
one phase-1 outcome is probed first, as its walk's first step, all in
the first round (see _search).
A bucket that needs no query finishes in the engine's start pass and
starts no walk (see depth_first_search).  Only hybrid's leaves carry
outcomes; this runner's one bucket has none.

This runner feeds the engine the level loop run over no tests: the root
query, then a single bucket over all n coordinates, so every query is its
own round and the query count is at most 1 + s * (the splitting tree's
test budget).
"""

from __future__ import annotations

from functools import cache
from itertools import repeat
from typing import Callable, Generator, Sequence, TextIO

from .core import BitVector, Label, TestMatrix, _new, log_query
from .errors import DimensionError, ParameterError, ReconstructionError
from .grouptest import GbsaTree, _lowest, _overflow, construct_disjunct
from .grouptest import gbsa_step  # unused here; the benchmark's traced run looks it up
from .oracle import DEFAULT_TAU, CountingOracle, SparsePolynomial, check_tau
from .pasmt import refine_levels

__all__ = ["split_bin", "depth_first_search", "fasmt_run"]


@cache
def _disjunct_items(m: int, d: int) -> tuple[tuple[int, ...], ...] | None:
    """The tests of construct_disjunct(m, d) as their 0-based item lists,
    built once per (m, d), or None where it is the identity: its tests
    are the candidates themselves, and mapping its items one by one cost
    hybrid's grid solves 4.7 % at p50 and 6.5 % at p90 (10 timed pairs)."""
    items = tuple(tuple(c - 1 for c in test.coords()) for test in construct_disjunct(m, d).columns)
    return None if items == tuple((i,) for i in range(m)) else items


def _probe_tests(free: int, d: int) -> list[int]:
    """The tests of construct_disjunct(|free|, d) as masks, item i mapped
    onto free's i-th coordinate in ascending order."""
    coords = []
    while free:
        low = free & -free
        coords.append(low)
        free ^= low
    design = _disjunct_items(len(coords), d)
    if design is None:
        return coords  # the identity's tests are the coordinates themselves
    return [sum([coords[i] for i in items]) for items in design]


def split_bin(
    value: float, x: BitVector, raw: float, residual: list[tuple[int, float]]
) -> tuple[float, float, list[tuple[int, float]]]:
    """Split a bucket of sum value by the oracle's value raw at its query point x.

    raw is f(x) already less the coefficients of every other bucket below
    x; the engine settles those (see depth_first_search).  residual lists
    the search's own finds as (support mask, coefficient) pairs in
    discovery order and must hold every one of them whose support lies
    below x.  raw minus those is the 0-child sum.  Returns (0-child sum,
    1-child sum, the pairs subtracted); the two sums add up to the bucket
    value.  An empty list, a search's before its first find, returns at
    once and is handed on; without that return grid fasmt was 1-4 %
    slower in the median of 30-40 in-process passes (four runs, see
    depth_first_search).
    """
    if not residual:
        return raw, value - raw, residual
    xm = x.mask
    below = [pair for pair in residual if pair[0] & xm == pair[0]]
    for _, c in below:
        raw -= c
    return raw, value - raw, below


def _search(
    n: int,
    d: int,
    tau: float,
    bucket: tuple[Label, float, int, Sequence[int]],
    own: list[tuple[int, float]],
    record: Callable[[list[tuple[int, float]], Label, int, float], None],
    transcript: TextIO | None,
) -> Generator[BitVector | list[BitVector], float | list[float], None]:
    """One bucket's walk: yields each query point and is sent the oracle's
    value there, settled against every other bucket below it (see
    depth_first_search).  It subtracts its own finds through split_bin.
    Records every coefficient it pins down through the engine's record,
    which appends it to own, and returns once the bucket is finished.
    The engine starts a walk only for a bucket that needs a query, so its
    first step asks.

    A leaf that holds one coefficient is finished in one stage, the second
    of the two-stage group-testing scheme (De Bonis, Gasieniec and
    Vaccaro, SIAM J. Comput. 2005; Indyk, Ngo and Rudra, SODA 2010): a
    bucket whose label has at least one outcome, with candidate set C, is
    probed with the tests of construct_disjunct(|C|, d), item i mapped
    onto the i-th coordinate of C in ascending order (_probe_tests; the
    design is built once per (|C|, d)).  Its first yield is one list, C
    minus each test in the design's order, all asked in the first round,
    and it is sent their settled values as one list.  Each point's
    transcript line carries the label and the settled value.  The decode
    is decode_disjunct's check: a test whose value is the bucket's sum v
    holds no defective, and the support is C minus those absent tests.  If
    every value is 0 or v and every test that read 0 meets that support,
    the bucket holds one coefficient, with queries that take no round of
    their own: its support is recorded with value v, or, past d
    defectives, the degree overflow is raised at the bucket's own label.
    A d-disjunct design tells any two supports of weight at most d apart,
    so a bucket of several coefficients reads some value neither 0 nor v
    (or a 0-test that misses the decoded support), and it is searched from
    the next round on over C minus the coordinates of its absent tests of
    one coordinate.  A wider test reads v also where coefficients that
    cancel meet it, so its coordinates stay in the search.  Where the
    identity is narrowest (|C| <= 12 at d = 2, 20 at d = 3, 35 at d = 4)
    every test is one coordinate {j} of C, so the points are C minus {j}
    in ascending j.  fasmt's one bucket has an empty label, and so has
    hybrid's where n <= 2d, so neither is probed.

    The search is a splitting search whose first stack entry is the
    bucket, so one loop pops them all, and an unasked test and a nonzero
    0-child share one outcome-0 step.  The splitting tree is stepped here
    by GbsaTree's rule, in five locals (block index, remaining, window,
    support found and pending test), not by GbsaTree.advance, whose call
    and state object cost more than the step once per query; a pending
    1-child stores four of them, and resumes with its parent's test as
    its window."""
    label, value, free, _ = bucket
    tests = _probe_tests(free, d) if label.n else ()
    if tests:
        points = []
        for test in tests:
            x = _new(BitVector)
            x.n = n
            x.mask = free ^ test
            points.append(x)
        absent = lone = 0
        hits = []
        for x, test, v0 in zip(points, tests, (yield points)):
            if transcript is not None:
                log_query(transcript, label, x, v0)
            if abs(value - v0) <= tau:
                absent |= test
                if not test & (test - 1):
                    lone |= test
            else:
                # a residual neither 0 nor the sum fails the check below
                hits.append(test if abs(v0) <= tau else 0)
        support = free ^ absent
        if all(test & support for test in hits):
            if support.bit_count() > d:
                raise _overflow(label, d)
            record(own, label, support, value)
            return
        free ^= lone
    blocks = GbsaTree(free, d).blocks
    nblocks = len(blocks)
    # pending 1-children: label length and mask, sum, candidate set,
    # residual list, the search's find count at push, and the parent's
    # block, remaining, support and test; first the bucket, at the
    # tree's root (before the first block, nothing found, test 0)
    stack = [(label.n, label.mask, value, free, [], 0, -1, 0, 0, 0)]
    while stack:
        (length, mask, value, free, residual, mark,
         block, remaining, support, test) = stack.pop()
        # what the search found since the 1-child was pushed (its
        # 0-sibling's subtree) lies inside the child's candidate set as well
        if mark < len(own):
            residual = residual + own[mark:]
        # outcome 1: the parent's test (the tested half, or the whole
        # remaining block) holds the next defective, so it is the window
        window = test
        while True:
            # GbsaTree._settle: a one-candidate window is a defective, an
            # exhausted block hands over to the next (blocks are never
            # empty), until a test is pending or the last block is done
            if window & (window - 1):
                test = _lowest(window, (window.bit_count() + 1) // 2)
            else:
                if window:
                    support |= window
                    if support.bit_count() > d:
                        # length and mask name the child the outcome led to
                        raise _overflow(Label(length, mask), d)
                    remaining ^= window
                    window = 0
                if not remaining:
                    block += 1
                    if block == nblocks:
                        record(own, Label(length, mask), support, value)
                        break
                    remaining = blocks[block]
                test = remaining
            # not free ^ test: a retested block can hold coordinates an
            # earlier 0-outcome already took out of free
            point = free & ~test
            # a test that misses the candidate set is not asked: every
            # support here avoids it, so the 0-child is the bucket
            if point != free:
                # free fits in n bits (depth_first_search checks it), so x
                # skips the checks
                x = _new(BitVector)
                x.n = n
                x.mask = point
                v0, v1, below = split_bin(value, x, (yield x), residual)
                if transcript is not None:
                    log_query(transcript, Label(length, mask), x, v0)
                if abs(v1) > tau:
                    stack.append(
                        (length + 1, mask | 1 << length, v1, free, residual, len(own),
                         block, remaining, support, test)
                    )
                if abs(v0) <= tau:
                    break
                value, free, residual = v0, point, below
            # outcome 0: the test holds no defective
            length += 1
            if window:
                window ^= test
            else:
                remaining = 0


def depth_first_search(
    f: CountingOracle,
    buckets: Sequence[tuple[Label, float, int, Sequence[int]]],
    d: int,
    tau: float,
    transcript: TextIO | None = None,
) -> dict[BitVector, float]:
    """Finish buckets by splitting searches, one batched round per step.

    The buckets are refine_levels' leaves as it returns them: (label, sum,
    candidate set, below), with the mask of the coordinates outside the
    tests the label records a 0 at and the indices of the earlier buckets
    whose labels lie componentwise below its own.  Each bucket is walked
    by _search, a generator that probes it or searches it over its
    candidate set.  Every bucket starts in the first round: a walk's first
    yield is one search point, or a probe's list of points, all asked in
    that round.  A round asks every running search's point.  A raw value
    f(x) never goes stale, so it is asked at once and settled once it can
    be.  Settling subtracts the coefficients of every bucket below the
    asker, by one rule for search and probe points alike.  It walks the
    asker's below list, the buckets unfinished when the asker started
    first.  For each bucket j: if j has finished, its coefficients that
    lie inside x are subtracted; else if j's candidate set lies inside x,
    every coefficient of j lies below x, so j's sum is subtracted (the
    pair test of split_bin applied to the pair (candidate set, sum));
    otherwise the value is held, and its walk paused, until j finishes.
    A settled search value is sent to the walk, which subtracts only its
    own finds, through split_bin; a probe's values are sent as one list
    once every one has settled, and a probe that does not finish its
    bucket goes on searching from the next round.  A value is never asked
    twice, and the lowest unfinished bucket is never held, so the
    schedule cannot stall.  A search that asks alone with no bucket below
    it is driven with eval alone, which charges one query and one round
    per point as a batch of one does, and what waits on it is released
    when it finishes.  That is all of fasmt's search, and the fork is
    kept for speed: sending such a point through the round loop, even
    with eval, made fasmt 11-13 % slower on grid instances, 3-7 % on
    wide_n and 2-3 % on dense_int (in process, the minimum of 30 passes
    interleaved with the kept code, 2-core host), and with batch_eval
    17-40 %.  Returns every recovered coefficient.  A support of weight
    above d surfaces as grouptest._overflow's degree overflow, and a
    support recorded twice as ReconstructionError naming the label of the
    second bucket to record it.  A tau that is negative or not finite raises
    ParameterError, a below list naming the bucket itself or a later one
    ParameterError, and a candidate set outside the n coordinates
    DimensionError, before any query: each bucket is checked in the pass
    that starts the walks, which asks nothing.

    The start pass is the one place a bucket finishes without a query,
    and such a bucket starts no walk, so every walk asks on its first
    step.  There are three rules.  A bucket whose sum is within tau is
    done, with nothing recorded.  A bucket whose candidate set is empty
    holds only the constant term, and records it with its sum.  A bucket
    of one candidate j whose label has a 1 records x_j with its sum: a
    1-outcome means every support in the bucket meets that test, so the
    empty support is not in it.  The probe's one point, the empty set,
    would read f(0), the constant term, and once settled against the all-0
    leaf, which lies below every leaf and holds that term, its value
    would be 0 ("j is present") whatever the values.  The rules sit in the
    start pass, not in _search, so such a bucket starts no generator: the
    one-candidate rule in _search made hybrid 6-7 % slower on 300 grid
    instances at d = 1 (measured as above).  Under no 1-outcome a
    one-candidate bucket is probed: its point tells the constant term
    apart from x_j.  At d = 1 hybrid's design is the Sperner design, so
    every leaf is a one-candidate bucket under a 1-outcome or the
    constant term's, with no candidate, and hybrid runs pasmt's level
    loop with no query in phase 2.
    """
    check_tau(tau)
    n = f.n
    full = (1 << n) - 1
    found: dict[int, float] = {}
    # each bucket's coefficients in discovery order, all of them once done
    owns: list[list[tuple[int, float]]] = [[] for _ in buckets]
    done = [False] * len(buckets)
    # the next round's points: (point, owner, slot).  An owner holds its
    # bucket's index, its below list, unfinished buckets first, and its
    # walk's send.  A search point's slot is -1; a probe point's is its
    # index, and its owner also holds the probe's settled values and the
    # count of those still unsettled
    asking: list = []
    # the values held until bucket j finishes, by j: ((point, owner, slot), raw)
    held: dict[int, list] = {}

    def finish(i: int) -> None:
        # the values it releases join the round's list, after this round's
        done[i] = True
        batch.extend(held.pop(i, ()))

    def record(own: list[tuple[int, float]], label: Label, support: int, value: float) -> None:
        # every coefficient, a search's or a probe's, is recorded here
        if support in found:
            raise ReconstructionError(
                f"support {BitVector(n, support).to01()!r} decoded twice", label=label
            )
        found[support] = value
        own.append((support, value))

    # each bucket is checked in the pass that starts it: a walk's first
    # yield is asked only in the round loop, so no value is held yet and a
    # bucket that needs no query is only marked done
    for i, bucket in enumerate(buckets):
        label, value, free, below = bucket
        if not 0 <= free <= full:
            raise DimensionError(f"bucket {i} has a candidate set outside n={n} coordinates")
        for j in below:
            if not 0 <= j < i:
                raise ParameterError(f"bucket {i} must list earlier buckets only")
        if abs(value) <= tau:
            done[i] = True
            continue
        if not free or label.mask and free.bit_count() == 1:
            # an empty candidate set leaves only the constant term, and a
            # 1-outcome keeps the empty support out of the bucket, so its one
            # candidate is its support
            record(owns[i], label, free, value)
            done[i] = True
            continue
        # the buckets below, those unfinished now first, each part in
        # refine_levels' order (sorted is stable): the float subtraction
        # order the recorded transcripts hold, which plain ascending order
        # moves in the last digit
        below = sorted(below, key=done.__getitem__)
        send = _search(n, d, tau, bucket, owns[i], record, transcript).send
        x = send(None)
        if type(x) is list:
            owner = [i, below, send, [0.0] * len(x), len(x)]
            asking.extend(zip(x, repeat(owner), range(len(x))))
        else:
            asking.append((x, (i, below, send), -1))
    while asking:
        # the round asks every waiting point; its list pairs each point with
        # its value, and then holds the values finish releases
        batch, asking = asking, []
        x, owner, slot = batch[0]
        if len(batch) == 1 and slot < 0 and not owner[1]:
            # a search asking alone with no bucket below: each of its values
            # settles at once; what waits on it is released when it finishes
            batch = []
            send = owner[2]
            try:
                while True:
                    x = send(f.eval(x))
            except StopIteration:
                finish(owner[0])
        else:
            batch = list(zip(batch, f.batch_eval([point[0] for point in batch])))
        for entry in batch:
            (x, owner, slot), raw = entry
            xm = x.mask
            for j in owner[1]:
                if done[j]:
                    for k, c in owns[j]:
                        if k & xm == k:
                            raw -= c
                    continue
                free = buckets[j][2]
                if free & xm != free:
                    held.setdefault(j, []).append(entry)
                    break
                raw -= buckets[j][1]
            else:
                if slot >= 0:
                    # a probe's values go to its walk once all have settled
                    owner[3][slot] = raw
                    owner[4] -= 1
                    if owner[4]:
                        continue
                    raw = owner[3]
                try:
                    asking.append((owner[2](raw), owner, -1))
                except StopIteration:
                    finish(owner[0])
    return {BitVector(n, k): v for k, v in found.items()}


def fasmt_run(
    f: CountingOracle,
    n: int,
    d: int,
    tau: float = DEFAULT_TAU,
    transcript: TextIO | None = None,
) -> SparsePolynomial:
    """Recover the coefficient map of the oracle depth-first.

    The level loop runs over no tests, which is the root query alone, and
    the engine searches its one leaf over all n coordinates.  Exact under
    the same conditions as the breadth-first runner whenever the true
    degree is at most d.  A true degree above d surfaces as
    ReconstructionError (degree overflow) carrying the offending label.
    The transcript's root line holds the raw value f(1...1); every later
    line holds the residual 0-child sum, f(x) minus the coefficients
    already found below x.
    """
    if d < 1:
        raise ParameterError(f"need d >= 1, got {d}")
    leaves = refine_levels(f, TestMatrix(n, ()), tau, transcript)
    discovered = depth_first_search(f, leaves, d, tau, transcript)
    return SparsePolynomial(n, discovered, degree_bound=d)
