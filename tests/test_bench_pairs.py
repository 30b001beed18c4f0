"""The summary that tests/bench_pairs.py writes from its timed pairs."""

from __future__ import annotations

import bench_pairs


def side(ms: float, rounds: int, exact: float = 1.0) -> dict:
    return {
        "hybrid.solve_ms.p50": (ms, "ref_ms"),
        "hybrid.rounds": (rounds, "count"),
        "exact_frac": (exact, "fraction"),
    }


BETTER = {"hybrid.solve_ms.p50": "lower", "hybrid.rounds": "lower", "exact_frac": "higher"}


def test_medians_iqr_change_and_the_pairs_the_change_lost():
    pairs = {
        "grid": [
            (1, side(4.0, 10), side(3.0, 10)),
            (2, side(2.0, 10), side(2.5, 10)),
            (3, side(3.0, 10), side(2.0, 10)),
            (4, side(5.0, 10), side(4.0, 10)),
        ]
    }
    summary, mismatches = bench_pairs.summarize(pairs, BETTER)
    ms = summary["grid"]["hybrid.solve_ms.p50"]
    assert (ms["base_median"], ms["head_median"]) == (3.5, 2.75)
    assert ms["base_iqr"] == 4.25 - 2.75
    assert ms["change_pct"] == 100 * (2.75 - 3.5) / 3.5
    assert ms["worse_in_pairs"] == [2]
    assert ms["unit"] == "ref_ms"
    assert summary["grid"]["hybrid.rounds"]["worse_in_pairs"] == []
    assert mismatches == []


def test_a_count_or_exact_frac_that_moves_within_a_pair_is_listed():
    pairs = {
        "dense_int": [
            (1, side(4.0, 10), side(4.0, 7)),
            (2, side(4.0, 10, 1.0), side(4.0, 10, 0.5)),
        ]
    }
    summary, mismatches = bench_pairs.summarize(pairs, BETTER)
    assert mismatches == [
        {"workload": "dense_int", "seed": 1, "metric": "hybrid.rounds", "base": 10, "head": 7},
        {"workload": "dense_int", "seed": 2, "metric": "exact_frac", "base": 1.0, "head": 0.5},
    ]
    # a higher exact_frac is better, so only the pair where it fell is worse
    assert summary["dense_int"]["exact_frac"]["worse_in_pairs"] == [2]
    assert summary["dense_int"]["hybrid.rounds"]["change_pct"] == -15.0
    # where counts may move, the run still fails on exact_frac
    assert bench_pairs.failing(mismatches, counts_move=False) == mismatches
    assert bench_pairs.failing(mismatches, counts_move=True) == mismatches[1:]


def test_one_pair_has_no_spread():
    summary, _ = bench_pairs.summarize({"grid": [(1, side(4.0, 10), side(5.0, 10))]}, BETTER)
    assert summary["grid"]["hybrid.solve_ms.p50"]["base_iqr"] == 0
    assert summary["grid"]["hybrid.solve_ms.p50"]["worse_in_pairs"] == [1]
