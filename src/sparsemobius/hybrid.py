"""Two-phase reconstruction: batched localization, then parallel searches.

Phase 1 runs the breadth-first level loop against a randomized
list-disjunct design: Bernoulli(1/(d+1)) cells, and the fewest tests,
O(d log(n/d)), that keep a weight-d support's expected list of false
candidates at most d long (grouptest.list_design_width).  Its surviving
leaf buckets are not exactly decodable, but each one comes with a small
candidate coordinate set that is guaranteed to contain the support of
every coefficient in the bucket.  Phase 2 finishes each bucket with the
depth-first runner's search engine, its splitting tree ranging over the
candidate set only.

Buckets whose labels are incomparable in the componentwise order cannot
contribute to each other's queries, so phase 2 processes the buckets in
antichain layers, one layer per chain height, and batches one query per
active bucket into a shared adaptive round.  A candidate set larger than
the audited bound is still sound, so its bucket is searched over the larger
set; it only costs more queries.  A degree overflow in a bucket's search
raises ReconstructionError with the bucket's label: the full-domain runner
would overflow as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TextIO

from .core import BitVector, Label
from .errors import DimensionError, ParameterError
from .fasmt import depth_first_search, fasmt_run
from .grouptest import ListDesign, construct_list_disjunct, list_decode
from .grouptest import gbsa_step  # unused here; the benchmark's traced run looks it up
from .oracle import DEFAULT_TAU, CountingOracle, SparsePolynomial
from .pasmt import refine_levels

__all__ = ["LocalizedBin", "hybrid_run"]


@dataclass(frozen=True)
class LocalizedBin:
    """A phase-1 leaf bucket with its candidate coordinate set."""

    label: Label
    value: float
    candidates: tuple[int, ...]
    zero_union: int


def _antichain_layers(bins: list[LocalizedBin]) -> list[list[LocalizedBin]]:
    """Group bins by chain height in the componentwise label order.

    A bin's height is the length of the longest chain of strictly smaller
    labels below it, so each layer is an antichain and every bin comes
    after all bins below it.  A strictly smaller label has fewer ones, so
    visiting the bins by label weight settles each height before it is
    needed.  Bins keep their input order within a layer.
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


def hybrid_run(
    f: CountingOracle,
    n: int,
    d: int,
    seed: int,
    tau: float = DEFAULT_TAU,
    transcript: TextIO | None = None,
    audit_trials: int = 256,
    design: ListDesign | None = None,
) -> SparsePolynomial:
    """Recover the coefficient map with batched localization.

    The seed fixes the randomized design, so reruns are reproducible.  A
    prebuilt design may be passed in to amortize its audit across runs, in
    which case the seed is ignored.  A true degree above d surfaces as
    ReconstructionError (degree overflow) carrying the offending label.
    """
    if f.n != n:
        raise DimensionError(f"oracle is over n={f.n}, expected {n}")
    if d < 1:
        raise ParameterError(f"need d >= 1, got {d}")
    if design is not None and design.n != n:
        raise DimensionError(f"design is over n={design.n}, expected {n}")
    if n < 2:
        return fasmt_run(f, n, d, tau, transcript)
    if design is None:
        design = construct_list_disjunct(n, min(d, n - 1), seed, audit_trials=audit_trials)
    bins = [
        LocalizedBin(label, value, list_decode(design, label), union)
        for label, value, union in refine_levels(f, design.matrix, tau, transcript)
    ]
    discovered: dict[BitVector, float] = {}
    for layer in _antichain_layers(bins):
        buckets = [
            (b.label, b.value, b.zero_union, BitVector.from_coords(n, b.candidates).mask)
            for b in layer
        ]
        depth_first_search(f, buckets, d, tau, discovered, transcript)
    return SparsePolynomial(n, discovered, degree_bound=d)
