"""Benchmark command for sparsemobius.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the package from src/.
With --trace 0 it prints the end-to-end metrics: set-up time, solve-time
percentiles per runner, query and round totals, the share of exact
recoveries, and peak RSS.  With --trace 1 it solves a fixed third of
the instances once untraced and once traced, so its counts repeat and
--seconds does not apply; it prints the per-layer metrics and writes the
spans to .perfbench/spans-<workload>.csv.  The line before the result
holds the run's metadata, sample counts and any failures; the last line
is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    source = ROOT / "src"
    if not (source / "sparsemobius" / "__init__.py").is_file():
        print(f"run.py: no sparsemobius package under {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    import bench

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    detail, result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
