"""Golden runs: every runner reproduces recorded maps, counts and transcripts.

The recorded file pins, for a fixed set of seeded instances, each runner's
recovered coefficient map, query and round counts, and the SHA-256 of its
transcript.  Any refactor of the runners must leave all of them unchanged.
Regenerate the file only when a behaviour change is intended:

    PYTHONPATH=src python3 tests/test_golden.py > tests/data/golden_runs.json

To see first which recorded fields a change moves, for each instance and
runner (the command exits 1 when any run differs, 0 otherwise):

    PYTHONPATH=src python3 tests/test_golden.py --diff
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from sparsemobius.core import BitVector
from sparsemobius.fasmt import fasmt_run
from sparsemobius.harness import generate_synthetic, runner_design
from sparsemobius.hybrid import hybrid_run
from sparsemobius.oracle import CountingOracle, SparsePolynomial, SparsePolyOracle
from sparsemobius.pasmt import pasmt_run

from weights import integer_weights

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_runs.json"
HYBRID_SEED = 2024
RUNNERS = ("pasmt", "fasmt", "hybrid")


def instances() -> list[tuple[str, SparsePolynomial, int, float]]:
    """(name, truth, d, tau) for every golden instance."""
    cases = []
    seed = 500
    for n in (16, 64, 256):
        for s in (1, 4, 16):
            for d in (1, 2, 4):
                seed += 1
                truth = generate_synthetic(n, s, d, seed=seed)
                cases.append((f"n{n}-s{s}-d{d}-seed{seed}", truth, d, 1e-9))
    for n, s, d in ((20, 6, 3), (50, 16, 4), (100, 8, 3)):
        # n not a multiple of d: the splitting tree's blocks differ in size
        seed += 1
        truth = generate_synthetic(n, s, d, seed=seed)
        cases.append((f"n{n}-s{s}-d{d}-seed{seed}", truth, d, 1e-9))
    # integer weights, recovered in exact arithmetic at tau = 0: signed ones,
    # and positive ones drawn as the benchmark's integer workload draws them
    drawn = generate_synthetic(64, 16, 2, seed=901, weight_lo=-8.0, weight_hi=8.0)
    signed = {k: int(v) or 9 for k, v in drawn.entries.items()}
    cases.append(("int-signed-n64-s16-d2-seed901", SparsePolynomial(64, signed), 2, 0.0))
    positive = integer_weights(generate_synthetic(256, 16, 4, seed=902))
    cases.append(("int-n256-s16-d4-seed902", positive, 4, 0.0))
    truth = SparsePolynomial(1, {BitVector(1, 1): 1.5, BitVector(1, 0): -0.25})
    cases.append(("n1-two-terms", truth, 1, 1e-9))
    for n in (1024, 2048):
        # the benchmark's wide_n regime: long rows, few live buckets
        seed += 1
        truth = generate_synthetic(n, 8, 4, seed=seed)
        cases.append((f"n{n}-s8-d4-seed{seed}", truth, 4, 1e-9))
    # the benchmark's dense_int shape: many live buckets per level
    positive = integer_weights(generate_synthetic(256, 64, 2, seed=903))
    cases.append(("int-n256-s64-d2-seed903", positive, 2, 0.0))
    return cases


def run_one(runner: str, truth: SparsePolynomial, d: int, tau: float) -> dict:
    n = truth.n
    f = CountingOracle(SparsePolyOracle(truth))
    sink = io.StringIO()
    if runner == "pasmt":
        got = pasmt_run(f, runner_design("pasmt", n, d), d, tau, transcript=sink)
    elif runner == "fasmt":
        got = fasmt_run(f, n, d, tau, transcript=sink)
    else:
        got = hybrid_run(f, n, d, HYBRID_SEED, tau, transcript=sink)
    return {
        "map": sorted([k.mask, repr(v)] for k, v in got.entries.items()),
        "queries": f.query_count,
        "rounds": f.round_count,
        "transcript_sha256": hashlib.sha256(sink.getvalue().encode("ascii")).hexdigest(),
    }


def record() -> dict:
    return {
        name: {runner: run_one(runner, truth, d, tau) for runner in RUNNERS}
        for name, truth, d, tau in instances()
    }


def diff_lines(golden: dict, current: dict) -> list[str]:
    """One line per instance and runner whose recorded fields differ."""
    lines = []
    for name in list(golden) + [name for name in current if name not in golden]:
        for runner in RUNNERS:
            want = golden.get(name, {}).get(runner)
            got = current.get(name, {}).get(runner)
            if want is None or got is None:
                status = "not recorded" if want is None else "no longer run"
                lines.append(f"{name}\t{runner}\t{status}")
                continue
            fields = [k for k in want.keys() | got.keys() if want.get(k) != got.get(k)]
            if fields:
                lines.append(f"{name}\t{runner}\t{', '.join(sorted(fields))}")
    return lines


def report_diff(golden: dict, current: dict) -> int:
    """Print the differing runs and their count; 1 if any differ, else 0."""
    lines = diff_lines(golden, current)
    total = len(current) * len(RUNNERS)
    print("\n".join(lines + [f"{len(lines)} of {total} runs differ from {GOLDEN.name}"]))
    return 1 if lines else 0


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="ascii"))


def test_instance_set_matches_recording(golden):
    assert [name for name, *_ in instances()] == list(golden)


@pytest.mark.parametrize("runner", RUNNERS)
def test_runner_reproduces_golden_runs(runner, golden):
    for name, truth, d, tau in instances():
        assert run_one(runner, truth, d, tau) == golden[name][runner], name


def test_runners_agree_on_every_golden_map(golden):
    # integer instances run at tau = 0 and must agree exactly
    for name, _, _, tau in instances():
        maps = [dict(golden[name][runner]["map"]) for runner in RUNNERS]
        assert all(m.keys() == maps[0].keys() for m in maps), name
        for mask, value in maps[0].items():
            for other in maps[1:]:
                if tau == 0.0:
                    assert other[mask] == value, name
                else:
                    assert abs(float(other[mask]) - float(value)) <= 1e-9, name


def test_diff_names_the_fields_that_moved(golden):
    name = next(iter(golden))
    moved = json.loads(json.dumps(golden))
    moved[name]["hybrid"]["rounds"] += 1
    del moved[name]["fasmt"]
    assert diff_lines(golden, golden) == []
    assert diff_lines(golden, moved) == [
        f"{name}\tfasmt\tno longer run",
        f"{name}\thybrid\trounds",
    ]


def test_diff_exit_status(golden, capsys):
    moved = json.loads(json.dumps(golden))
    moved[next(iter(golden))]["pasmt"]["queries"] += 1
    total = len(golden) * len(RUNNERS)
    assert report_diff(golden, golden) == 0
    assert capsys.readouterr().out == f"0 of {total} runs differ from {GOLDEN.name}\n"
    assert report_diff(golden, moved) == 1
    assert capsys.readouterr().out.endswith(f"1 of {total} runs differ from {GOLDEN.name}\n")


if __name__ == "__main__":
    current = record()
    if sys.argv[1:] == ["--diff"]:
        sys.exit(report_diff(json.loads(GOLDEN.read_text(encoding="ascii")), current))
    else:
        # one line per instance and runner, so a behaviour change diffs readably
        blocks = []
        for name, runs in current.items():
            lines = ",\n".join(f"  {json.dumps(r)}: {json.dumps(runs[r])}" for r in RUNNERS)
            blocks.append(f" {json.dumps(name)}: {{\n{lines}\n }}")
        print("{\n" + ",\n".join(blocks) + "\n}")
