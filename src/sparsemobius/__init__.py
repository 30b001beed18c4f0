"""Exact learning of sparse polynomials over {0,1}^n in the AND basis.

A hidden real-valued function f(x) = sum over supports k <= x of F(k) with
at most s nonzero coefficients of degree at most d is recovered exactly
from adaptive evaluation queries.  Three reconstructors are provided:
breadth-first over a disjunct matrix (few rounds), depth-first over an
adaptive splitting tree (few queries), and a two-phase hybrid (few of
both).  See the harness module for synthetic instances and benchmarks.
"""

from .core import BitVector, Label, TestMatrix, build_query_vector, syndrome
from .errors import (
    CapacityError,
    DimensionError,
    FormatError,
    InfeasiblePrefixError,
    ParameterError,
    ReconstructionError,
    SparseMobiusError,
    ValidationError,
)
from .fasmt import fasmt_run
from .grouptest import (
    ListDesign,
    construct_disjunct,
    construct_list_disjunct,
    decode_disjunct,
    gbsa_test_budget,
)
from .harness import (
    BenchRecord,
    GridCell,
    generate_synthetic,
    lower_bound,
    optimality_ratio,
    run_benchmark,
    write_csv,
)
from .hybrid import hybrid_run
from .oracle import (
    DEFAULT_TAU,
    CountingOracle,
    QueryOracle,
    SparsePolynomial,
    SparsePolyOracle,
    read_hypergraph,
    read_instance,
    read_polynomial,
    write_polynomial,
)
from .pasmt import pasmt_run
from .reference import (
    DenseTable,
    check_subset_sum_independence,
    mobius_transform,
    zeta_transform,
)

__version__ = "0.1.0"
