"""The depth-first engine as it was before residual lists and ready-driven
starts, kept as the reference the current engine is tested against.

Here one split_bin subtracts every discovered coefficient below a point,
whichever leaf found it, scanning them all at every query.  The current
engine splits that by the leaf a coefficient belongs to: its settle rule
subtracts the other leaves' coefficients from every value, search and
probe points alike, and a search subtracts only its own finds, through
fasmt.split_bin.  There one generator walks each leaf, probing it first
when it is small and going on to search it when the probe does not
finish it.  Here, too, stack entries carry Label objects, a test
inside the zero union is answered 0 without a query, and hybrid's phase
2 runs the leaf buckets in antichain layers: a layer starts only once
every bucket of the layer before it has finished.  A layer's labelled
leaves with candidates are probed first, in a round of their own, by the
tests of construct_disjunct over their candidates (a one-candidate leaf
under a 1-outcome records its candidate with no query), and decoded by
decode_disjunct itself; the layer's searches, a failed probe's over its
candidates minus those its absent tests of one candidate hold, run side
by side after it.

phase_two_rounds counts the rounds of the current engine's schedule from
a phase-2 transcript: every leaf starts in round 1, and a value waits
only for the leaves below it whose candidate sets its point does not hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TextIO

from sparsemobius.core import BitVector, Label
from sparsemobius.errors import InfeasiblePrefixError, ReconstructionError
from sparsemobius.grouptest import (
    GbsaTree,
    construct_disjunct,
    construct_list_disjunct,
    decode_disjunct,
    list_decode,
)
from sparsemobius.oracle import CountingOracle, SparsePolynomial
from sparsemobius.pasmt import refine_levels


@dataclass(frozen=True)
class LocalizedBin:
    """A phase-1 leaf bucket with its candidate coordinate set."""

    label: Label
    value: float
    candidates: tuple[int, ...]
    zero_union: int


def split_bin(value, x, raw, discovered):
    nx = ~x.mask
    for k, c in discovered.items():
        if k.mask & nx == 0:
            raw -= c
    return raw, value - raw


def _log(transcript: TextIO | None, label: Label, x: BitVector, value: float) -> None:
    if transcript is not None:
        transcript.write(f"{label.to01()}\t{x.to01()}\t{value!r}\n")


def _next_query(n, tree, stack, tau, discovered):
    while stack:
        label, value, union, state, outcome = stack.pop()
        if abs(value) <= tau:
            continue
        if outcome is not None:
            try:
                state = tree.advance(state, outcome)
            except InfeasiblePrefixError as err:
                raise ReconstructionError(
                    f"degree overflow at bucket {label.to01()!r}: {err}", label=label
                ) from err
        if state.test is not None:
            if state.test & ~union == 0:
                # every coordinate of the test is already known absent, so
                # the 0-child is the whole bucket and needs no query
                stack.append((Label(label.n + 1, label.mask), value, union, state, 0))
                continue
            return label, value, union, state
        support = BitVector(n, state.found)
        if support in discovered:
            raise ReconstructionError(
                f"support {support.to01()!r} decoded twice", label=label
            )
        discovered[support] = value
    return None


def depth_first_search(f, buckets, d, tau, discovered, transcript=None):
    """Run pairwise-incomparable (label, sum, zero union, universe) buckets
    side by side, one query per bucket per round."""
    n = f.n
    full = (1 << n) - 1
    active = []
    for label, value, union, universe in buckets:
        tree = GbsaTree(universe, d)
        stack = [(label, value, union, tree.start(), None)]
        pending = _next_query(n, tree, stack, tau, discovered)
        if pending is not None:
            active.append((tree, stack, pending))
    while active:
        xs = [
            BitVector(n, full & ~(union | state.test))
            for _, _, (_, _, union, state) in active
        ]
        raws = f.batch_eval(xs)
        still = []
        for (tree, stack, pending), x, raw in zip(active, xs, raws):
            label, value, union, state = pending
            v0, v1 = split_bin(value, x, raw, discovered)
            _log(transcript, label, x, v0)
            stack.append((Label(label.n + 1, label.mask | 1 << label.n), v1, union, state, 1))
            stack.append((Label(label.n + 1, label.mask), v0, union | state.test, state, 0))
            pending = _next_query(n, tree, stack, tau, discovered)
            if pending is not None:
                still.append((tree, stack, pending))
        active = still


def fasmt_run(f: CountingOracle, n: int, d: int, tau: float, transcript=None):
    ones = BitVector.ones(n)
    root = f.eval(ones)
    _log(transcript, Label(0), ones, root)
    discovered: dict[BitVector, float] = {}
    depth_first_search(f, [(Label(0), root, 0, ones.mask)], d, tau, discovered, transcript)
    return SparsePolynomial(n, discovered, degree_bound=d)


def antichain_layers(bins: list[LocalizedBin]) -> list[list[LocalizedBin]]:
    """Group bins by chain height in the componentwise label order.

    A bin's height is the length of the longest chain of strictly smaller
    labels below it, so each layer is an antichain and every bin comes
    after all bins below it.  Bins keep their input order within a layer.
    """
    height = [0] * len(bins)
    visited: list[tuple[int, int]] = []
    for i in sorted(range(len(bins)), key=lambda i: bins[i].label.mask.bit_count()):
        mask = bins[i].label.mask
        height[i] = max(
            (h + 1 for other, h in visited if other & ~mask == 0 and other != mask),
            default=0,
        )
        visited.append((mask, height[i]))
    layers: list[list[LocalizedBin]] = [[] for _ in range(max(height, default=-1) + 1)]
    for b, h in zip(bins, height):
        layers[h].append(b)
    return layers


def hybrid_run(f: CountingOracle, n: int, d: int, seed: int, tau: float, transcript=None):
    if n < 2:
        return fasmt_run(f, n, d, tau, transcript)
    design = construct_list_disjunct(n, min(d, n - 1), seed)
    full = (1 << n) - 1
    # refine_levels hands each leaf on with its candidate set, the
    # complement of the zero union this engine keeps
    bins = [
        LocalizedBin(label, value, list_decode(design, label), full ^ free)
        for label, value, free, _ in refine_levels(f, design, tau, transcript)
    ]
    discovered: dict[BitVector, float] = {}
    for layer in antichain_layers(bins):
        buckets = []
        probed = [b for b in layer if b.label.n and b.candidates]
        for b, absent in zip(probed, probe(f, probed, d, tau, discovered, transcript)):
            if absent is not None:
                universe = full ^ b.zero_union ^ absent
                buckets.append((b.label, b.value, full ^ universe, universe))
        buckets += [
            (b.label, b.value, b.zero_union, BitVector.from_coords(n, b.candidates).mask)
            for b in layer
            if b not in probed
        ]
        depth_first_search(f, buckets, d, tau, discovered, transcript)
    return SparsePolynomial(n, discovered, degree_bound=d)


def probe(f, bins, d, tau, discovered, transcript):
    """Ask every bin's candidate set minus each test of
    construct_disjunct(m, d), m its candidate count and item i its i-th
    candidate, all in one round.  The tests whose residual is the bin's sum
    are its syndrome's 0s.  A bin whose residuals are all 0 or its sum, and
    whose syndrome decode_disjunct decodes, records its one coefficient
    and gets None in the returned list; any other bin gets the mask of the
    candidates its 0-tests of one candidate hold.  A bin of one candidate whose label has a
    1 asks nothing: a 1-outcome keeps the empty support out of it, so the
    candidate is its support."""
    n = f.n
    designs = [construct_disjunct(len(b.candidates), d) for b in bins]
    points = [
        None
        if b.label.mask and len(b.candidates) == 1
        else [
            BitVector.from_coords(
                n, [c for i, c in enumerate(b.candidates) if not test.mask >> i & 1]
            )
            for test in H.columns
        ]
        for b, H in zip(bins, designs)
    ]
    raws = iter(f.batch_eval([x for xs in points if xs for x in xs]))
    out = []
    for b, H, xs in zip(bins, designs, points):
        if xs is None:
            discovered[BitVector.from_coords(n, b.candidates)] = b.value
            out.append(None)
            continue
        ones = absent = 0
        mixed = False
        for t, (test, x) in enumerate(zip(H.columns, xs)):
            v0, v1 = split_bin(b.value, x, next(raws), discovered)
            _log(transcript, b.label, x, v0)
            if abs(v1) <= tau:
                if test.weight() == 1:
                    coords = [b.candidates[i - 1] for i in test.coords()]
                    absent |= BitVector.from_coords(n, coords).mask
            else:
                ones |= 1 << t
                mixed = mixed or abs(v0) > tau
        try:
            # the weight check is the leaf's own, at its label
            items = None if mixed else decode_disjunct(H, Label(H.b, ones), len(b.candidates))
        except ReconstructionError:
            items = None
        if items is None:
            out.append(absent)
        elif items.weight() > d:
            raise ReconstructionError(
                f"degree overflow at bucket {b.label.to01()!r}: "
                f"outcomes imply more than d={d} defectives",
                label=b.label,
            )
        else:
            support = BitVector.from_coords(n, [b.candidates[i - 1] for i in items.coords()])
            discovered[support] = b.value
            out.append(None)
    return out


def phase_two_rounds(leaves, lines, d):
    """The rounds phase 2 takes when every leaf starts in round 1.

    leaves are refine_levels' (label, sum, candidate set, below); lines
    are the phase-2 transcript's (label, point mask) pairs, so a leaf's
    points in the order it asks them.  A probed leaf asks its first
    construct_disjunct(|C|, d).b points in round 1 and is decoded once
    the last of them is settled; a failed probe's search, like a searched
    leaf, asks each point in the round after its previous one is settled.  A point is settled in the
    round it is asked or in the round the last leaf below it whose
    candidate set it does not hold finishes, whichever is later.  A leaf
    finishes when its last point is settled, in round 0 if it asks none.
    """
    b = leaves[0][0].n if leaves else 0
    points = {}
    for label, x in lines:
        points.setdefault(label[:b], []).append(x)
    finish = []
    for label, _, free, below in leaves:
        # each point's wait: the finishing rounds of the leaves below whose
        # candidate sets it does not hold
        waits = [
            [finish[j] for j in below if leaves[j][2] & ~x]
            for x in points.get(label.to01(), [])
        ]
        at, asked = 0, 1
        if label.n and waits:
            width = construct_disjunct(free.bit_count(), d).b
            at = max(max([1] + wait) for wait in waits[:width])
            asked, waits = at + 1, waits[width:]
        for wait in waits:
            at = max([asked] + wait)
            asked = at + 1
        finish.append(at)
    return max(finish, default=0)
