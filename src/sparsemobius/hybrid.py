"""Two-phase reconstruction: batched localization, then parallel searches.

Phase 1 runs the breadth-first level loop against a randomized
list-disjunct design: Bernoulli(1/(d+1)) cells, and the fewest tests,
O(d log(n/d)), that keep a weight-d support's expected list of false
candidates at most 3L/2 long, L = d * max(1, floor(log2(n / 2d)))
(grouptest.list_design_width): phase 2 finishes a list that long in
fewer queries, and on the acceptance grid in fewer rounds, than more
phase-1 tests would spend shortening it.  Its surviving
leaf buckets are not exactly decodable, but each one comes with a small
candidate coordinate set, outside every test its label records a 0 at,
guaranteed to contain the support of every coefficient in the bucket.
Phase 2 hands the leaves as they are to the depth-first runner's search
engine, whose splitting tree for each bucket ranges over that set only.
Where n <= 2d the design has no tests: phase 1 is the root query and phase
2 one search over all n, exactly as fasmt runs.  Elsewhere at d = 1 the
design is pasmt's Sperner design (construct_list_disjunct), a list design
whose false-candidate lists are empty: each leaf holds one coordinate
under a 1-outcome, which phase 2 records with no query, or the constant
term's empty candidate set.  So at d = 1 hybrid runs pasmt's level loop,
with the same queries, rounds and map.

Phase 2 probes every leaf of at most 8d candidates (fasmt.PROBE_FACTOR),
the second stage of two-stage group testing, as the first step of the
leaf's walk (fasmt._search): it asks the candidate set minus each
candidate, all in the first round, and a leaf whose residuals say it
holds one coefficient is done once those values settle; any other leaf
goes on to search the candidates the probe did not rule out.  A sweep over the acceptance grid (4,500
instances, every run exact) set the cap and the list length together, as
hybrid's grid queries / rounds:

    list cap   probe cap   queries   rounds
    L          none        496,491   117,776
    L          8d          513,917    88,875
    5L/4       8d          492,644    86,446
    3L/2       8d          484,418    85,992
    3L/2       6d          471,360    92,809
    3L/2       10d         494,429    82,027
    2L         8d          468,608    91,455

3L/2 with 8d cut both queries and rounds against the search alone; a
larger cap trades queries for rounds, and a smaller one the reverse.

A bucket's coefficients can lie below another bucket's query points only
when its label lies componentwise below the other's, so phase 1 hands each
leaf the list of leaves below it.  The engine starts every leaf in the
first round, asks every probe point there, and batches one query per
running search into each adaptive round.  A value settles as soon as each
leaf below has finished or has its whole candidate set inside the query
point (its sum is then subtracted); otherwise it waits, with its search,
for that leaf to finish.

The width bounds only the expected size of a candidate set; a larger set
is still sound, so its bucket is searched over the larger set, which only
costs more queries.  A degree overflow raises ReconstructionError, as the
full-domain runner would: a bucket's search names the child where its
splitting tree ran out, and a probe names its own leaf.
"""

from __future__ import annotations

from typing import TextIO

from .errors import DimensionError, ParameterError
from .fasmt import depth_first_search
from .fasmt import fasmt_run  # unused here; the benchmark's traced run looks it up
from .grouptest import ListDesign, construct_list_disjunct
from .grouptest import gbsa_step  # unused here; the benchmark's traced run looks it up
from .grouptest import list_decode  # unused here; the benchmark's traced run looks it up
from .oracle import DEFAULT_TAU, CountingOracle, SparsePolynomial
from .pasmt import refine_levels

__all__ = ["hybrid_run"]


def hybrid_run(
    f: CountingOracle,
    n: int,
    d: int,
    seed: int,
    tau: float = DEFAULT_TAU,
    transcript: TextIO | None = None,
    design: ListDesign | None = None,
) -> SparsePolynomial:
    """Recover the coefficient map with batched localization.

    The seed fixes the randomized design, so reruns are reproducible.  A
    prebuilt design may be passed in to build it once for many runs; it
    keeps its own seed, and the seed argument is not read.  A true degree
    above d surfaces as ReconstructionError (degree overflow) carrying the
    offending label.
    The transcript's phase-1 lines hold the raw value f(x), as pasmt's do;
    its phase-2 lines hold residual 0-child sums, as fasmt's do.
    """
    if f.n != n:
        raise DimensionError(f"oracle is over n={f.n}, expected {n}")
    if d < 1:
        raise ParameterError(f"need d >= 1, got {d}")
    if design is None:
        design = construct_list_disjunct(n, d, seed)
    leaves = refine_levels(f, design, tau, transcript)
    discovered = depth_first_search(f, leaves, d, tau, transcript)
    return SparsePolynomial(n, discovered, degree_bound=d)
