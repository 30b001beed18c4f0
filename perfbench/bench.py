"""Workloads, set-up and the measuring loops of the benchmark.

Load is a closed loop: one process, no threads, one runner call at a time.
Every instance is solved by all three runners in turn, the order rotating
from one instance to the next, with gc.collect() before each timed call.
Every recovered map is checked against the truth, and the query and round
counts of an (instance, runner) pair must repeat on every later call.

End-to-end times are in reference units.  Each is the CPU time of the
benchmark's one thread, divided by the CPU time of a fixed probe measured
just before and just after it, times the probe's reference time of 1 ms:
`ref_ms` is milliseconds on a machine where the probe takes 1 ms, and
`setup_s` is seconds on the same scale.  On a shared 2-core host the
speed of the same code drifted by up to 1.7x over minutes, in CPU time as
much as in wall-clock time, and the probe drifts with it.  Raw CPU and
wall-clock times are printed beside them, and the traced run's span
times are wall-clock.
"""

from __future__ import annotations

import gc
import logging
import os
import platform
import resource
import statistics
import sys
import time
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from sparsemobius import fasmt, grouptest, harness, hybrid, pasmt
from sparsemobius.core import Label
from sparsemobius.errors import SparseMobiusError
from sparsemobius.oracle import CountingOracle, SparsePolynomial, SparsePolyOracle
from sparsemobius.rng import PRNG_ID, SplitMix64

from tracing import TimedOracle, Tracer, layer_metrics

RUNNERS = ("pasmt", "fasmt", "hybrid")
SETUP_REPEATS = 3
ALLOC_INSTANCES = 9
VALUE_TOL = 1e-9
PROBE_REF_NS = 1_000_000
ERROR_KINDS = ("ReconstructionError", "WrongMap")


@dataclass(frozen=True)
class Workload:
    cells: tuple[tuple[int, int, int], ...]  # (n, s, d)
    per_cell: int
    integer: bool


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "grid": Workload(
        tuple((n, s, d) for n in (16, 32, 64, 128, 256) for s in (1, 4, 16) for d in (1, 2, 4)),
        per_cell=20,
        integer=False,
    ),
    "wide_n": Workload(tuple((n, 8, 4) for n in (1024, 2048, 4096)), per_cell=80, integer=False),
    "dense_int": Workload(((256, 64, 2),), per_cell=200, integer=True),
}


@dataclass(frozen=True)
class Instance:
    index: int
    n: int
    d: int
    seed: int
    truth: SparsePolynomial
    integer: bool


def make_instances(workload: Workload, seed: int) -> list[Instance]:
    """Seeded instances, cycling through the cells so any prefix is balanced."""
    rng = SplitMix64(seed)
    instances = []
    for _ in range(workload.per_cell):
        for n, s, d in workload.cells:
            inst_seed = rng.next64()
            truth = harness.generate_synthetic(n, s, d, inst_seed)
            if workload.integer:
                # integer weights from the same draws, as the acceptance suite makes them
                entries = {k: 1 + int(8 * (v - 1.0)) for k, v in truth.entries.items()}
                truth = SparsePolynomial(n, entries, degree_bound=d)
            instances.append(Instance(len(instances), n, d, inst_seed, truth, workload.integer))
    return instances


def build_designs(instances: list[Instance]) -> dict:
    """One disjunct matrix and one list design per (n, d), reused by every call.

    The list design's seed depends on (n, d) only, so it is part of the
    runner's configuration rather than of the workload's inputs.
    """
    designs = {}
    for inst in instances:
        n, d = inst.n, inst.d
        if (n, d) not in designs:
            designs[n, d] = (
                grouptest.construct_disjunct(n, d),
                grouptest.construct_list_disjunct(n, d, seed=40_000 + 97 * n + d),
            )
    return designs


def call_runner(runner: str, f: CountingOracle, inst: Instance, designs: dict) -> SparsePolynomial:
    matrix, design = designs[inst.n, inst.d]
    if runner == "pasmt":
        return pasmt.pasmt_run(f, matrix, inst.d)
    if runner == "fasmt":
        return fasmt.fasmt_run(f, inst.n, inst.d)
    return hybrid.hybrid_run(f, inst.n, inst.d, design.seed, design=design)


def setup(workload: Workload, seed: int) -> tuple[list[Instance], dict]:
    """Generate instances, build designs, and make one untimed call per
    runner per (n, d) so that lazy work such as TestMatrix.row_masks is
    done before timing starts."""
    instances = make_instances(workload, seed)
    designs = build_designs(instances)
    first = {}
    for inst in instances:
        first.setdefault((inst.n, inst.d), inst)
    for inst in first.values():
        for runner in RUNNERS:
            try:
                call_runner(runner, CountingOracle(SparsePolyOracle(inst.truth)), inst, designs)
            except SparseMobiusError:
                pass  # the timed call of the same instance records it
    return instances, designs


class FallbackCounter(logging.Handler):
    """Counts the hybrid runner's fallback warnings instead of printing them."""

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        self.count += 1


@contextmanager
def counting_fallbacks() -> Iterator[FallbackCounter]:
    logger = logging.getLogger(hybrid.__name__)
    handler = FallbackCounter()
    propagate = logger.propagate
    logger.addHandler(handler)
    logger.propagate = False
    try:
        yield handler
    finally:
        logger.removeHandler(handler)
        logger.propagate = propagate


def is_exact(got: SparsePolynomial, inst: Instance) -> bool:
    if inst.integer:
        return got == inst.truth and all(type(v) is int for v in got.entries.values())
    return got.close_to(inst.truth, VALUE_TOL)


class Tally:
    """Times, counts and failures of the solves made in one mode."""

    def __init__(self, fallbacks: FallbackCounter):
        self.fallbacks = fallbacks
        # clock -> runner -> instance index -> samples in ns
        self.times: dict[str, dict[str, dict[int, list[float]]]] = {
            clock: {r: defaultdict(list) for r in RUNNERS} for clock in ("ref", "cpu", "wall")
        }
        self.counts: dict[tuple[str, int], tuple[int, int, int]] = {}
        self.repeatable = True
        self.attempted = 0
        self.failures: list[dict] = []

    def solve(self, runner: str, inst: Instance, designs: dict, tracer: Tracer | None = None) -> int:
        """Solve, check and record one call; return its CPU time in ns."""
        inner = SparsePolyOracle(inst.truth)
        f = CountingOracle(inner if tracer is None else TimedOracle(inner, tracer))
        fallbacks = self.fallbacks.count
        error = None
        gc.collect()
        wall = time.perf_counter_ns()
        cpu = time.thread_time_ns()
        try:
            if tracer is None:
                got = call_runner(runner, f, inst, designs)
            else:
                tracer.instance = inst.index
                sid = tracer.begin(runner + ".run")
                try:
                    got = call_runner(runner, f, inst, designs)
                finally:
                    tracer.end(sid)
        except SparseMobiusError as err:
            error = err
        cpu = time.thread_time_ns() - cpu
        wall = time.perf_counter_ns() - wall
        self.attempted += 1
        self.times["cpu"][runner][inst.index].append(cpu)
        self.times["wall"][runner][inst.index].append(wall)
        counts = (f.query_count, f.round_count, self.fallbacks.count - fallbacks)
        if self.counts.setdefault((runner, inst.index), counts) != counts:
            self.repeatable = False
        if error is None and not is_exact(got, inst):
            error_class, label = "WrongMap", None
        elif error is not None:
            error_class, label = type(error).__name__, getattr(error, "label", None)
        else:
            return cpu
        self.failures.append({
            "runner": runner,
            "instance_seed": inst.seed,
            "n": inst.n,
            "d": inst.d,
            "error": error_class,
            "label": label.to01() if isinstance(label, Label) else label,
        })
        return cpu

    def total(self, runner: str, field: int) -> int:
        return sum(c[field] for (r, _), c in self.counts.items() if r == runner)

    def wall_s(self, runner: str) -> float:
        return sum(map(sum, self.times["wall"][runner].values())) / 1e9

    def deciles_ms(self, clock: str, runner: str) -> tuple[float, float]:
        """p50 and p90 over instances of each instance's median time."""
        per_instance = [statistics.median(v) / 1e6 for v in self.times[clock][runner].values()]
        deciles = statistics.quantiles(per_instance, n=10, method="inclusive")
        return deciles[4], deciles[8]


class _Cell:
    __slots__ = ("mask",)

    def __init__(self, mask: int):
        self.mask = mask


def _echo() -> Iterator[int]:
    value = 0
    while True:
        value = yield value + 1


def probe() -> int:
    """CPU time in ns of a fixed piece of work, about 2 ms on a 2 GHz x86-64 core.

    It mixes what the runners spend their time on: 256-bit masks, small
    slotted objects, dict and list traffic, and a generator driven by send.
    It uses no package code, so a change to the package cannot move it.
    """
    start = time.thread_time_ns()
    full = (1 << 256) - 1
    x = 0x9E3779B97F4A7C15
    cells = []
    index = {}
    for _ in range(600):
        x = (x * 6364136223846793005 + 1442695040888963407) & full
        cell = _Cell(x & ~(x >> 7))
        cells.append(cell)
        index[cell.mask & 0xFFFF] = cell
    hits = 0
    for a in cells[::3]:
        outside = ~a.mask
        for b in cells[:40]:
            if b.mask & outside == 0:
                hits += 1
    walker = _echo()
    next(walker)
    for i in range(500):
        walker.send(i)
    return time.thread_time_ns() - start


class Calibration:
    """Scales CPU times to reference units by the probes taken around them."""

    def __init__(self) -> None:
        self._before = probe()

    def scale(self, cpu_ns: int) -> float:
        after = probe()
        ref_ns = cpu_ns * 2 * PROBE_REF_NS / (self._before + after)
        self._before = after
        return ref_ns


def rotated(index: int) -> tuple[str, ...]:
    k = index % len(RUNNERS)
    return RUNNERS[k:] + RUNNERS[:k]


def measure(instances: list[Instance], designs: dict, seconds: float, tally: Tally) -> int:
    """Solve every instance at least once, then go on until the time is up.

    Returns the number of complete passes over the instances.
    """
    deadline = time.perf_counter() + seconds
    passes = 0
    calibration = Calibration()
    while True:
        for inst in instances:
            for runner in rotated(inst.index):
                cpu = tally.solve(runner, inst, designs)
                tally.times["ref"][runner][inst.index].append(calibration.scale(cpu))
            if passes and time.perf_counter() >= deadline:
                return passes
        passes += 1
        if time.perf_counter() >= deadline:
            return passes


def alloc_peaks(instances: list[Instance], designs: dict) -> dict[str, float]:
    """Largest tracemalloc peak of one runner call, over the first instances."""
    peaks = dict.fromkeys(RUNNERS, 0)
    tracemalloc.start()
    try:
        for inst in instances[:ALLOC_INSTANCES]:
            for runner in RUNNERS:
                f = CountingOracle(SparsePolyOracle(inst.truth))
                gc.collect()
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                try:
                    call_runner(runner, f, inst, designs)
                except SparseMobiusError:
                    pass
                peaks[runner] = max(peaks[runner], tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return {f"{r}.alloc_peak_kb": peaks[r] / 1024 for r in RUNNERS}


def unit(name: str) -> str:
    if ".solve_ms." in name:
        return "ref_ms"
    for suffix, label in (
        (".s", "s"),
        ("_s", "s"),
        ("_us_per_query", "us"),
        ("_kb", "KiB"),
        ("_mb", "MiB"),
        ("_frac", "fraction"),
    ):
        if name.endswith(suffix):
            return label
    return "count"


def run_plain(workload: Workload, seed: int, seconds: float) -> tuple[dict, dict, list]:
    """End-to-end metrics with tracing off."""
    with counting_fallbacks() as fallbacks:
        setups: dict[str, list[float]] = {"ref": [], "cpu": [], "wall": []}
        calibration = Calibration()
        for _ in range(SETUP_REPEATS):
            wall = time.perf_counter_ns()
            cpu = time.thread_time_ns()
            instances, designs = setup(workload, seed)
            cpu = time.thread_time_ns() - cpu
            setups["wall"].append((time.perf_counter_ns() - wall) / 1e9)
            setups["cpu"].append(cpu / 1e9)
            setups["ref"].append(calibration.scale(cpu) / 1e9)
        tally = Tally(fallbacks)
        with frozen_heap():
            passes = measure(instances, designs, seconds, tally)
    metrics = {"setup_s": statistics.median(setups["ref"])}
    for runner in RUNNERS:
        metrics[runner + ".solve_ms.p50"], metrics[runner + ".solve_ms.p90"] = tally.deciles_ms("ref", runner)
    for runner in RUNNERS:
        metrics[runner + ".queries"] = tally.total(runner, 0)
    metrics["pasmt.rounds"] = tally.total("pasmt", 1)
    metrics["hybrid.rounds"] = tally.total("hybrid", 1)
    metrics["exact_frac"] = 1 - len(tally.failures) / tally.attempted
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    detail = {
        "instances": len(instances),
        "passes": passes,
        "samples": {r: sum(map(len, tally.times["cpu"][r].values())) for r in RUNNERS},
        "setup_s.cpu_wall": (statistics.median(setups["cpu"]), statistics.median(setups["wall"])),
        "cpu_ms.p50_p90": {r: tally.deciles_ms("cpu", r) for r in RUNNERS},
        "wall_ms.p50_p90": {r: tally.deciles_ms("wall", r) for r in RUNNERS},
        "hybrid_fallbacks": tally.total("hybrid", 2),
        "repeatable": tally.repeatable,
    }
    return metrics, detail, [tally]


def run_traced(workload: Workload, seed: int, spans_path: Path) -> tuple[dict, dict, list]:
    """Per-layer metrics from the first third of the instances, each solved
    untraced and then traced.  A third still holds every cell, and keeps
    the run within the time of an untraced one."""
    tracer = Tracer()
    with counting_fallbacks() as fallbacks:
        with tracer.patched():
            instances, designs = setup(workload, seed)
        instances = instances[: len(workload.cells) * max(1, workload.per_cell // 3)]
        plain, traced = Tally(fallbacks), Tally(fallbacks)
        with frozen_heap():
            for inst in instances:
                for runner in rotated(inst.index):
                    plain.solve(runner, inst, designs)
                    with tracer.patched():
                        traced.solve(runner, inst, designs, tracer)
        metrics = layer_metrics(tracer)
        metrics.update(alloc_peaks(instances, designs))
    metrics["oracle.batch_size.mean"] = sum(traced.total(r, 0) for r in RUNNERS) / sum(
        traced.total(r, 1) for r in RUNNERS
    )
    metrics["hybrid.fallbacks"] = traced.total("hybrid", 2)
    kinds = Counter(
        (f["runner"], f["error"] if f["error"] in ERROR_KINDS else "other") for f in traced.failures
    )
    for runner in RUNNERS:
        wall = plain.wall_s(runner) - metrics[runner + ".oracle_s"]
        metrics[runner + ".overhead_us_per_query"] = wall / traced.total(runner, 0) * 1e6
        for kind in (*ERROR_KINDS, "other"):
            metrics[f"{runner}.errors.{kind}"] = kinds[runner, kind]
    plain_s = sum(map(plain.wall_s, RUNNERS))
    metrics["trace.overhead_s"] = sum(map(traced.wall_s, RUNNERS)) - plain_s
    metrics["trace.overhead_frac"] = metrics["trace.overhead_s"] / plain_s
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write_csv(spans_path)
    detail = {
        "instances": len(instances),
        "spans": len(tracer.spans),
        "spans_file": str(spans_path),
        "repeatable": plain.repeatable and traced.repeatable and plain.counts == traced.counts,
    }
    return metrics, detail, [plain, traced]


@contextmanager
def frozen_heap() -> Iterator[None]:
    """Keep set-up objects out of the collections made before each call."""
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def git_revision(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without starting a process."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run(name: str, seed: int, seconds: float, trace: bool, root: Path) -> tuple[dict, dict]:
    """Run one workload; return (detail, result) as the command prints them."""
    workload = WORKLOADS[name]
    if trace:
        metrics, detail, tallies = run_traced(workload, seed, root / ".perfbench" / f"spans-{name}.csv")
    else:
        metrics, detail, tallies = run_plain(workload, seed, seconds)
    failures = [f for t in tallies for f in t.failures]
    attempted = sum(t.attempted for t in tallies)
    detail = {
        "meta": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "git_revision": git_revision(root),
            "command": [Path(sys.executable).name, *sys.argv],
            "workload": name,
            "seed": seed,
            "prng": PRNG_ID,
        },
        **detail,
        "failures": failures[:20],
    }
    result = {
        "correct": not failures and detail["repeatable"],
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }
    return detail, result
