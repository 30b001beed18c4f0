"""Command-line interface.

Subcommands: gen (sample a synthetic instance), reconstruct (recover a
coefficient map from a polynomial or hypergraph file), verify (check a
reconstruction against the coefficient map the input file holds), bench
(run a benchmark grid to CSV), and bound (print the query lower bound).

Exit codes: 0 success, 1 input or validation error, 2 reconstruction
failure, 3 verification mismatch.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext

from .errors import ReconstructionError, SparseMobiusError
from .harness import (
    ALGORITHMS,
    generate_synthetic,
    lower_bound,
    read_grid,
    run_benchmark,
    run_cell,
    write_csv,
)
from .oracle import (
    DEFAULT_TAU,
    CountingOracle,
    SparsePolyOracle,
    read_instance,
    write_polynomial,
)


class _Parser(argparse.ArgumentParser):
    """Argument errors exit with the validation code, not argparse's 2."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _run_algorithm(args):
    truth = read_instance(args.input, args.format)
    oracle = CountingOracle(SparsePolyOracle(truth))
    sink = open(args.transcript, "w", encoding="ascii") if args.transcript else None
    with sink if sink is not None else nullcontext():
        recovered = run_cell(args.alg, oracle, args.d, args.tau, sink)
    return truth, recovered, oracle


def _cmd_gen(args) -> int:
    poly = generate_synthetic(
        args.n, args.s, args.d, args.seed, weight_lo=args.wlo, weight_hi=args.whi
    )
    write_polynomial(poly, args.out)
    print(f"wrote n={poly.n} s={poly.sparsity} d<={args.d} to {args.out}")
    return 0


def _cmd_reconstruct(args) -> int:
    truth, recovered, oracle = _run_algorithm(args)
    write_polynomial(recovered, args.out)
    print(
        f"algorithm={args.alg} n={truth.n} coefficients={recovered.sparsity} "
        f"queries={oracle.query_count} rounds={oracle.round_count}"
    )
    return 0


def _cmd_verify(args) -> int:
    truth, recovered, _ = _run_algorithm(args)
    if recovered.close_to(truth, max(args.tau, DEFAULT_TAU)):
        print("verified: spectra match")
        return 0
    print("MISMATCH between reconstruction and the input's coefficient map")
    return 3


def _cmd_bench(args) -> int:
    cells = read_grid(args.grid)
    records = run_benchmark(cells, tau=args.tau)
    write_csv(records, args.out)
    failures = sum(1 for r in records if not r.exact)
    print(f"ran {len(records)} cells, {failures} inexact, wrote {args.out}")
    return 0


def _cmd_bound(args) -> int:
    print(lower_bound(args.n, args.s, args.d))
    return 0


def _add_common(sub) -> None:
    sub.add_argument("--alg", required=True, choices=ALGORITHMS)
    sub.add_argument("--input", required=True, help="instance file")
    sub.add_argument(
        "--format",
        choices=("auto", "poly", "hgr"),
        default="auto",
        help="input format (default: sniff the first data line)",
    )
    sub.add_argument("--d", required=True, type=int, help="degree bound")
    sub.add_argument("--tau", type=float, default=DEFAULT_TAU, help="zero tolerance")
    sub.add_argument("--transcript", help="write a query transcript here")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sparsemobius", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", help="sample a synthetic instance")
    gen.add_argument("--n", required=True, type=int)
    gen.add_argument("--s", required=True, type=int)
    gen.add_argument("--d", required=True, type=int)
    gen.add_argument("--seed", required=True, type=int)
    gen.add_argument("--wlo", type=float, default=1.0, help="weight range low end")
    gen.add_argument("--whi", type=float, default=2.0, help="weight range high end")
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_gen)

    rec = subs.add_parser("reconstruct", help="recover a coefficient map")
    _add_common(rec)
    rec.add_argument("--out", required=True, help="recovered coefficients file")
    rec.set_defaults(func=_cmd_reconstruct)

    ver = subs.add_parser("verify", help="check the recovery against the input's map")
    _add_common(ver)
    ver.set_defaults(func=_cmd_verify)

    ben = subs.add_parser("bench", help="run a benchmark grid")
    ben.add_argument("--grid", required=True, help="file of 'algorithm n s d seed' lines")
    ben.add_argument("--out", required=True, help="CSV output path")
    ben.add_argument("--tau", type=float, default=DEFAULT_TAU, help="zero tolerance")
    ben.set_defaults(func=_cmd_bench)

    bnd = subs.add_parser("bound", help="print the query lower bound")
    bnd.add_argument("--n", required=True, type=int)
    bnd.add_argument("--s", required=True, type=int)
    bnd.add_argument("--d", required=True, type=int)
    bnd.set_defaults(func=_cmd_bound)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReconstructionError as err:
        print(f"reconstruction failed: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 1
    except SparseMobiusError as err:
        print(f"invalid input: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
