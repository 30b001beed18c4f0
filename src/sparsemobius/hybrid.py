"""Two-phase reconstruction: batched localization, then parallel searches.

Phase 1 runs the breadth-first level loop against a randomized
list-disjunct design.  Its surviving leaf buckets are not exactly
decodable, but each one comes with a small audited candidate coordinate
set that is guaranteed to contain the support of every coefficient in the
bucket.  Phase 2 finishes each bucket with the depth-first runner's
search engine, its splitting tree ranging over the candidate set only.

Buckets whose labels are incomparable in the componentwise order cannot
contribute to each other's queries, so phase 2 processes the buckets in
antichain layers and batches one query per active bucket into a shared
adaptive round.  If a candidate set overflows the audited bound, the run
falls back to the plain depth-first runner on the full domain (logged);
queries already spent stay counted.  A degree overflow in a bucket's search
raises ReconstructionError with the bucket's label: the full-domain runner
would overflow as well.
"""

from __future__ import annotations

import logging
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

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class LocalizedBin:
    """A phase-1 leaf bucket with its candidate coordinate set."""

    label: Label
    value: float
    candidates: tuple[int, ...]
    zero_union: int


def _antichain_layers(bins: list[LocalizedBin]) -> list[list[LocalizedBin]]:
    """Peel repeated minimal layers of the componentwise label order."""
    layers: list[list[LocalizedBin]] = []
    remaining = list(bins)
    while remaining:
        layer = [
            b
            for b in remaining
            if not any(
                o.label != b.label and o.label.leq(b.label) for o in remaining
            )
        ]
        taken = {b.label for b in layer}
        remaining = [b for b in remaining if b.label not in taken]
        layers.append(layer)
    return layers


def hybrid_run(
    f: CountingOracle,
    n: int,
    d: int,
    seed: int,
    tau: float = DEFAULT_TAU,
    transcript: TextIO | None = None,
    columns_factor: float = 4.0,
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
        design = construct_list_disjunct(
            n, min(d, n - 1), seed, columns_factor=columns_factor,
            audit_trials=audit_trials,
        )
    leaves = refine_levels(f, design.matrix, tau, transcript)
    bins: list[LocalizedBin] = []
    for label, value, union in leaves:
        candidates = list_decode(design, label)
        if len(candidates) > design.list_bound:
            logger.warning(
                "hybrid: candidate set exceeded the audited bound %d; "
                "falling back to the depth-first runner",
                design.list_bound,
            )
            return fasmt_run(f, n, d, tau, transcript=transcript)
        bins.append(LocalizedBin(label, value, candidates, union))
    discovered: dict[BitVector, float] = {}
    for layer in _antichain_layers(bins):
        buckets = [
            (b.label, b.value, b.zero_union, BitVector.from_coords(n, b.candidates).mask)
            for b in layer
        ]
        depth_first_search(f, buckets, d, tau, discovered, transcript)
    return SparsePolynomial(n, discovered, degree_bound=d)
