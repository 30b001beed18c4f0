"""Exact learning of sparse polynomials over {0,1}^n in the AND basis.

A hidden real-valued function f(x) = sum over supports k <= x of F(k) with
at most s nonzero coefficients of degree at most d is recovered exactly
from adaptive evaluation queries.  Three reconstructors are provided:
breadth-first over a disjunct matrix (few rounds), depth-first over an
adaptive splitting tree (few queries), and a two-phase hybrid (few of
both).  See the harness module for synthetic instances and benchmarks.
"""

from .core import (
    BitVector,
    Label,
    TestMatrix,
    boolean_leq,
    build_query_vector,
    lex_compare,
    semiring_apply,
)
from .errors import (
    CapacityError,
    DecodeError,
    DimensionError,
    FormatError,
    InfeasiblePrefixError,
    ParameterError,
    ReconstructionError,
    SparseMobiusError,
    ValidationError,
)
from .fasmt import fasmt_run, fasmt_run_auto_degree, split_bin
from .grouptest import (
    GbsaResult,
    GbsaTest,
    ListDesign,
    construct_disjunct,
    construct_list_disjunct,
    decode_disjunct,
    gbsa_run,
    gbsa_step,
    gbsa_test_budget,
    identity_matrix,
    list_decode,
    verify_disjunct,
)
from .harness import (
    BenchRecord,
    GridCell,
    generate_synthetic,
    lower_bound,
    optimality_ratio,
    read_csv,
    run_benchmark,
    write_csv,
)
from .hybrid import LocalizedBin, hybrid_run
from .oracle import (
    DEFAULT_TAU,
    CountingOracle,
    Hypergraph,
    QueryOracle,
    SparsePolynomial,
    SparsePolyOracle,
    eval_sparse,
    hypergraph_to_polynomial,
    read_hypergraph,
    read_polynomial,
    write_hypergraph,
    write_polynomial,
)
from .pasmt import LevelState, pasmt_run, solve_bin_system
from .reference import (
    DenseTable,
    DenseTableOracle,
    brute_force_learn,
    check_subset_sum_independence,
    dense_from_polynomial,
    mobius_transform,
    zeta_transform,
)

__version__ = "0.1.0"
