"""Golden runs: every runner reproduces recorded maps, counts and transcripts.

The recorded file pins, for a fixed set of seeded instances, each runner's
recovered coefficient map, query and round counts, and the SHA-256 of its
transcript.  Any refactor of the runners must leave all of them unchanged.
Regenerate the file only when a behaviour change is intended:

    PYTHONPATH=src python3 tests/test_golden.py > tests/data/golden_runs.json
"""

from __future__ import annotations

import hashlib
import io
import json
from pathlib import Path

import pytest

from sparsemobius.core import BitVector
from sparsemobius.fasmt import fasmt_run
from sparsemobius.grouptest import construct_disjunct, identity_matrix
from sparsemobius.harness import generate_synthetic
from sparsemobius.hybrid import hybrid_run
from sparsemobius.oracle import CountingOracle, SparsePolynomial, SparsePolyOracle
from sparsemobius.pasmt import pasmt_run

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
    drawn = generate_synthetic(256, 16, 4, seed=902)
    positive = {k: 1 + int(8 * (v - 1.0)) for k, v in drawn.entries.items()}
    cases.append(("int-n256-s16-d4-seed902", SparsePolynomial(256, positive), 4, 0.0))
    truth = SparsePolynomial(1, {BitVector(1, 1): 1.5, BitVector(1, 0): -0.25})
    cases.append(("n1-two-terms", truth, 1, 1e-9))
    return cases


def run_one(runner: str, truth: SparsePolynomial, d: int, tau: float) -> dict:
    n = truth.n
    f = CountingOracle(SparsePolyOracle(truth))
    sink = io.StringIO()
    if runner == "pasmt":
        H = construct_disjunct(n, d) if n > d else identity_matrix(n)
        got = pasmt_run(f, H, d, tau, transcript=sink)
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


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="ascii"))


def test_instance_set_matches_recording(golden):
    assert [name for name, *_ in instances()] == list(golden)


@pytest.mark.parametrize("runner", RUNNERS)
def test_runner_reproduces_golden_runs(runner, golden):
    for name, truth, d, tau in instances():
        assert run_one(runner, truth, d, tau) == golden[name][runner], name


if __name__ == "__main__":
    # one line per instance and runner, so a behaviour change diffs readably
    blocks = []
    for name, runs in record().items():
        lines = ",\n".join(f"  {json.dumps(r)}: {json.dumps(runs[r])}" for r in RUNNERS)
        blocks.append(f" {json.dumps(name)}: {{\n{lines}\n }}")
    print("{\n" + ",\n".join(blocks) + "\n}")
