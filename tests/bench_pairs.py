"""Time the benchmark at a base commit and at the working tree, in pairs.

    python3 tests/bench_pairs.py BASE [--pairs N] [--seconds S]
        [--workload NAME ...] [--counts-move] [--base-checkout DIR]
        [--out FILE]

Standard library only.  It adds a detached git worktree of BASE under a
temporary directory and removes it on exit, error or SIGTERM included;
with --base-checkout it runs BASE from that existing checkout instead,
which must be at BASE, and leaves it in place.  For each seed 1..N and
each workload (all of BENCHMARK.json's by default) it runs
perfbench/run.py once from BASE and once from the working tree, BASE
first at odd seeds and second at even ones, so that drift in the host's
speed falls on both sides alike.  It writes one JSON file (BENCH_pairs.json
by default): for each workload and end-to-end metric, both medians, BASE's
interquartile range, the change of the medians in percent, and the seeds
of the pairs in which the working tree was worse.

A count (a metric in unit "count") or exact_frac that differs within a
pair is listed under "count_mismatches", and the command then exits 1.
--counts-move says that the change moves counts on purpose, and lets
counts differ; exact_frac must still match, since a change in it is a
change in which runs are correct.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*words: str) -> str:
    """git's output for words, run in this checkout; a failure raises."""
    return subprocess.run(
        ["git", *words], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The metrics perfbench/run.py prints from checkout, as name -> (value, unit)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{checkout}: {workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}"
        )
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {name: (m["value"], m["unit"]) for name, m in metrics.items()}


def summarize(pairs: dict, better: dict) -> tuple[dict, list]:
    """pairs maps workload -> [(seed, base metrics, head metrics)]; better
    maps a metric to "lower" or "higher".  Returns the per-workload summary
    and the count mismatches."""
    summary: dict = {}
    mismatches = []
    for workload, runs in pairs.items():
        out = summary[workload] = {}
        for name in runs[0][1]:
            base = [b[name][0] for _, b, _ in runs]
            head = [h[name][0] for _, _, h in runs]
            sign = -1 if better.get(name, "lower") == "higher" else 1
            q = statistics.quantiles(base, n=4, method="inclusive") if len(base) > 1 else [0, 0, 0]
            mid_base, mid_head = statistics.median(base), statistics.median(head)
            out[name] = {
                "unit": runs[0][1][name][1],
                "base_median": mid_base,
                "head_median": mid_head,
                "base_iqr": q[2] - q[0],
                "change_pct": 100 * (mid_head - mid_base) / mid_base if mid_base else None,
                "worse_in_pairs": [
                    seed for (seed, _, _), b, h in zip(runs, base, head) if sign * (h - b) > 0
                ],
            }
            if runs[0][1][name][1] == "count" or name == "exact_frac":
                mismatches += [
                    {"workload": workload, "seed": seed, "metric": name, "base": b, "head": h}
                    for (seed, _, _), b, h in zip(runs, base, head)
                    if b != h
                ]
    return summary, mismatches


def failing(mismatches: list, counts_move: bool) -> list:
    """The mismatches that fail the run: all of them, or where counts may
    move, exact_frac's alone."""
    return [m for m in mismatches if not counts_move or m["metric"] == "exact_frac"]


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="the commit to compare the working tree against")
    parser.add_argument("--pairs", type=int, default=5, help="seeds 1..N, one pair each")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    names = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument(
        "--counts-move", action="store_true", help="counts may differ within a pair"
    )
    parser.add_argument(
        "--base-checkout", type=Path, help="an existing checkout of BASE to run from"
    )
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_pairs.json")
    args = parser.parse_args(argv)
    workloads = args.workload or names
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    commit, head = git("rev-parse", args.base), git("rev-parse", "HEAD")
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    if args.base_checkout:
        at = git("-C", str(args.base_checkout.resolve()), "rev-parse", "HEAD")
        if at != commit:
            parser.error(f"{args.base_checkout} is at {at}, not at {commit}")
    scratch = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    base = args.base_checkout or scratch / "base"
    pairs: dict = {w: [] for w in workloads}
    # a kill unwinds through the finally below, which removes the worktree
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        if not args.base_checkout:
            git("worktree", "add", "--detach", str(base), commit)
        for seed in range(1, args.pairs + 1):
            for workload in workloads:
                sides = {}
                order = (("base", base), ("head", ROOT))
                for side, checkout in order if seed % 2 else order[::-1]:
                    sides[side] = run_bench(checkout, workload, seed, args.seconds)
                pairs[workload].append((seed, sides["base"], sides["head"]))
                print(f"{workload} seed {seed} done", file=sys.stderr)
    finally:
        if not args.base_checkout:
            subprocess.run(
                ["git", "worktree", "remove", "--force", str(base)], cwd=ROOT, capture_output=True
            )
            subprocess.run(["git", "worktree", "prune"], cwd=ROOT, capture_output=True)
        shutil.rmtree(scratch, ignore_errors=True)
    summary, mismatches = summarize(pairs, better)
    record = {
        "base": commit,
        "head": head + (" with uncommitted changes" if dirty else ""),
        "pairs": args.pairs,
        "seconds": args.seconds,
        "python": sys.version.split()[0],
        "workloads": summary,
        "count_mismatches": mismatches,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="ascii")
    failed = failing(mismatches, args.counts_move)
    if failed:
        print(f"{len(failed)} counts differ within a pair; see {args.out}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
