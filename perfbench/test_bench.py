"""Smoke test of the benchmark on a tiny workload.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_bench.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import bench
import run
import tracing
from sparsemobius import fasmt, grouptest
from sparsemobius.fasmt import fasmt_run
from sparsemobius.hybrid import hybrid_run
from sparsemobius.oracle import CountingOracle, SparsePolyOracle
from sparsemobius.pasmt import pasmt_run

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
TINY = {
    "tiny": bench.Workload(((16, 3, 2), (24, 4, 1)), per_cell=3, integer=False),
    "tiny_int": bench.Workload(((20, 6, 2),), per_cell=4, integer=True),
}
SEED = 7


@pytest.fixture(autouse=True)
def tiny_workloads(monkeypatch):
    for name, workload in TINY.items():
        monkeypatch.setitem(bench.WORKLOADS, name, workload)


def direct_counts(workload: bench.Workload, limit: int | None = None) -> dict[str, tuple[int, int]]:
    """Query and round totals from calling the runners without the benchmark,
    over the first `limit` instances."""
    instances = bench.make_instances(workload, SEED)[:limit]
    designs = bench.build_designs(instances)
    totals = {}
    for runner in bench.RUNNERS:
        queries = rounds = 0
        for inst in instances:
            matrix, design = designs[inst.n, inst.d]
            f = CountingOracle(SparsePolyOracle(inst.truth))
            if runner == "pasmt":
                pasmt_run(f, matrix, inst.d)
            elif runner == "fasmt":
                fasmt_run(f, inst.n, inst.d)
            else:
                hybrid_run(f, inst.n, inst.d, design.seed, design=design)
            queries += f.query_count
            rounds += f.round_count
        totals[runner] = (queries, rounds)
    return totals


def check_schema(result: dict, section: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))
    json.dumps(result)


@pytest.mark.parametrize("name", sorted(TINY))
def test_end_to_end_schema_and_counts(name, tmp_path):
    detail, result = bench.run(name, SEED, 0.0, False, tmp_path)
    check_schema(result, "end_to_end")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    for runner, (queries, rounds) in direct_counts(TINY[name]).items():
        assert metrics[runner + ".queries"] == queries
        if runner + ".rounds" in metrics:
            assert metrics[runner + ".rounds"] == rounds
    assert metrics["exact_frac"] == 1
    assert detail["meta"]["seed"] == SEED and detail["meta"]["prng"] == "splitmix64"
    assert detail["repeatable"] and detail["passes"] == 1


def test_traced_run_counts_and_restores_names(tmp_path):
    originals = [getattr(mod, attr) for mod, attr, _ in tracing.PATCHES]
    detail, result = bench.run("tiny", SEED, 0.0, True, tmp_path)
    check_schema(result, "per_layer")
    assert [getattr(mod, attr) for mod, attr, _ in tracing.PATCHES] == originals
    assert fasmt.gbsa_step is grouptest.gbsa_step
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    counts = direct_counts(TINY["tiny"], detail["instances"])
    assert metrics["oracle.eval.calls"] == sum(q for q, _ in counts.values())
    assert metrics["oracle.batch_size.mean"] == pytest.approx(
        sum(q for q, _ in counts.values()) / sum(r for _, r in counts.values())
    )
    assert metrics["grouptest.decode_disjunct.calls"] > 0
    assert (tmp_path / ".perfbench" / "spans-tiny.csv").is_file()


def test_self_time_arithmetic():
    # root [0, 100] holds A [10, 40], C [35, 45] (overlapping A) and
    # B [50, 90], which holds D [60, 70]; oracle time is charged directly
    spans = [
        ["root", -1, 0, 0, 100, 10],
        ["A", 0, 0, 10, 40, 5],
        ["B", 0, 0, 50, 90, 0],
        ["D", 2, 0, 60, 70, 0],
        ["C", 0, 0, 35, 45, 0],
    ]
    assert tracing.self_times(spans) == [100 - 35 - 40 - 10, 30 - 5, 40 - 10, 10, 10]


def test_missing_package_exits_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "grid", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
