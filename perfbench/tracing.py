"""Spans recorded around the calls into each sparsemobius layer.

The tracer records nothing inside the package.  While `Tracer.patched()`
is active, it swaps the module-level names the runners call through (and
the builders the benchmark itself calls) for wrappers that open a span per
call, and restores the originals on exit.  Oracle time is not a span per
evaluation, which would cost more memory than the work it measures: the
timing oracle adds each evaluation's duration to the innermost open span.

A span is a list [name, parent, instance, start_ns, end_ns, oracle_ns];
its id is its index in `Tracer.spans`.  Parent is -1 for a root span and
instance is -1 for set-up work.
"""

from __future__ import annotations

import csv
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

from sparsemobius import core, fasmt, grouptest, harness, hybrid, pasmt

NAME, PARENT, INSTANCE, START, END, ORACLE = range(6)

RUNNER_ROOTS = ("pasmt.run", "fasmt.run", "hybrid.run")

# (module, attribute, span name): the names the runners look up at call
# time, plus the builders the benchmark calls through their modules.
PATCHES = (
    (fasmt, "gbsa_step", "grouptest.gbsa_step"),
    (fasmt, "split_bin", "fasmt.split_bin"),
    (hybrid, "gbsa_step", "grouptest.gbsa_step"),
    (hybrid, "list_decode", "grouptest.list_decode"),
    (hybrid, "refine_levels", "pasmt.refine_levels"),
    (hybrid, "fasmt_run", "fasmt.run"),
    (pasmt, "refine_levels", "pasmt.refine_levels"),
    (pasmt, "solve_bin_system", "pasmt.solve_bin_system"),
    (pasmt, "decode_disjunct", "grouptest.decode_disjunct"),
    (harness, "generate_synthetic", "harness.generate_synthetic"),
    (grouptest, "construct_disjunct", "grouptest.construct_disjunct"),
    (grouptest, "construct_list_disjunct", "grouptest.construct_list_disjunct"),
)


class Tracer:
    """In-memory span recorder with the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.instance = -1
        self.oracle_calls = 0
        self.oracle_ns = 0
        self.candidate_sizes: list[int] = []
        self.over_bound = 0
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, self.instance, time.perf_counter_ns(), 0, 0])
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][END] = time.perf_counter_ns()
        self._stack.pop()

    def add_oracle(self, ns: int) -> None:
        self.oracle_calls += 1
        self.oracle_ns += ns
        if self._stack:
            self.spans[self._stack[-1]][ORACLE] += ns

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            sid = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(sid)

        return traced

    def _wrap_list_decode(self, fn: Callable) -> Callable:
        traced = self.wrap("grouptest.list_decode", fn)

        def counted(design, label):
            candidates = traced(design, label)
            if self.instance >= 0:
                self.candidate_sizes.append(len(candidates))
                self.over_bound += len(candidates) > design.list_bound
            return candidates

        return counted

    @contextmanager
    def patched(self) -> Iterator[None]:
        """Route the traced names through span wrappers, then restore them."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in PATCHES]
        rows = core.TestMatrix.__dict__["row_masks"]
        try:
            for mod, attr, name in PATCHES:
                fn = getattr(mod, attr)
                if attr == "list_decode":
                    setattr(mod, attr, self._wrap_list_decode(fn))
                else:
                    setattr(mod, attr, self.wrap(name, fn))
            core.TestMatrix.row_masks = property(self._lazy_rows(rows.fget))
            yield
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)
            core.TestMatrix.row_masks = rows

    def _lazy_rows(self, fget: Callable) -> Callable:
        traced = self.wrap("core.row_masks", fget)

        def row_masks(matrix):
            # only the first access builds the rows; later ones are a lookup
            return traced(matrix) if matrix._rows is None else fget(matrix)

        return row_masks

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="ascii") as handle:
            out = csv.writer(handle)
            out.writerow(["id", "name", "parent", "instance", "start_ns", "end_ns", "oracle_ns"])
            for sid, span in enumerate(self.spans):
                out.writerow([sid, *span])


class TimedOracle:
    """Evaluation oracle that charges each evaluation to the open span."""

    __slots__ = ("n", "_inner", "_tracer")

    def __init__(self, inner, tracer: Tracer):
        self.n = inner.n
        self._inner = inner
        self._tracer = tracer

    def eval(self, x):
        start = time.perf_counter_ns()
        value = self._inner.eval(x)
        self._tracer.add_oracle(time.perf_counter_ns() - start)
        return value


def self_times(spans: Sequence[list]) -> list[int]:
    """Each span's duration minus what its children and oracle time cover.

    Child intervals are clipped to the parent and merged before they are
    subtracted, so overlapping children are not counted twice.
    """
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    result = []
    for sid, span in enumerate(spans):
        lo, hi = span[START], span[END]
        covered = 0
        reach = lo
        for start, end in sorted(children.get(sid, ())):
            start, end = max(start, reach), min(end, hi)
            if end > start:
                covered += end - start
                reach = end
        result.append(hi - lo - covered - span[ORACLE])
    return result


BUILDERS = (
    "harness.generate_synthetic",
    "grouptest.construct_disjunct",
    "grouptest.construct_list_disjunct",
    "core.row_masks",
)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts and seconds from the recorded spans.

    A `.s` value is self time.  A layer's `.calls` and `.s` sum over all
    runners that call it; a `<runner>.` value counts only spans under that
    runner's root.  Builder spans count wherever they occur; every other
    span counts only under a timed runner root, so warm-up calls made
    during set-up stay out.
    """
    spans = tracer.spans
    own = [ns / 1e9 for ns in self_times(spans)]
    roots: list[int] = []
    for sid, span in enumerate(spans):
        if span[PARENT] >= 0:
            roots.append(roots[span[PARENT]])
        elif span[INSTANCE] >= 0 and span[NAME] in RUNNER_ROOTS:
            roots.append(sid)
        else:
            roots.append(-1)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    runner_self: dict[tuple[str, str], float] = defaultdict(float)
    runner_dur: dict[tuple[str, str], float] = defaultdict(float)
    oracle_s: dict[str, float] = defaultdict(float)
    for sid, span in enumerate(spans):
        name, root = span[NAME], roots[sid]
        if root < 0 and name not in BUILDERS:
            continue
        calls[name] += 1
        self_s[name] += own[sid]
        if root >= 0:
            runner = spans[root][NAME].split(".")[0]
            key = (runner, "root" if sid == root else name)
            runner_self[key] += own[sid]
            runner_dur[key] += (span[END] - span[START]) / 1e9
            oracle_s[runner] += span[ORACLE] / 1e9
    phase1 = runner_dur["hybrid", "pasmt.refine_levels"]
    fallback = runner_dur["hybrid", "fasmt.run"]
    phase2 = runner_dur["hybrid", "root"] - phase1 - fallback - runner_dur["hybrid", "grouptest.list_decode"]
    metrics = {name + ".s": self_s[name] for name in BUILDERS}
    metrics.update({
        "oracle.eval.calls": tracer.oracle_calls,
        "oracle.eval.s": tracer.oracle_ns / 1e9,
        "pasmt.oracle_s": oracle_s["pasmt"],
        "fasmt.oracle_s": oracle_s["fasmt"],
        "hybrid.oracle_s": oracle_s["hybrid"],
    })
    for name in (
        "grouptest.gbsa_step",
        "grouptest.decode_disjunct",
        "grouptest.list_decode",
        "pasmt.solve_bin_system",
        "fasmt.split_bin",
    ):
        metrics[name + ".calls"] = calls[name]
        metrics[name + ".s"] = self_s[name]
    metrics.update({
        "hybrid.candidates.max": max(tracer.candidate_sizes, default=0),
        "hybrid.candidates.over_bound": tracer.over_bound,
        "pasmt.self_s": runner_self["pasmt", "root"] + runner_self["pasmt", "pasmt.refine_levels"],
        "fasmt.self_s": runner_self["fasmt", "root"],
        "hybrid.self_s": runner_self["hybrid", "root"],
        "hybrid.phase1_s": phase1,
        "hybrid.phase2_s": phase2,
        "hybrid.fallback_s": fallback,
    })
    return metrics
