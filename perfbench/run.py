#!/usr/bin/env python3
"""Layered benchmark for forestmatrix.

    python3 perfbench/run.py --workload exact-kernels --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1            # every workload, one after another

Each workload (see workloads.py, and BENCHMARK.json for why each exists) is a
closed loop with a single caller: the next job starts only after the previous
one returned. A run repeats the workload's seed-generated job list in whole
passes until --seconds have been measured and at least MIN_JOBS jobs ran, so
that ten jobs lie beyond p90. Only the call into the program is timed; every
outcome is checked afterwards (checks.py), and on GOLDEN_SEED every exact
outcome must also match the digest in golden.json.

The run pins itself, and so every child, to one core. Times are reported at
reference speed: each job's wall time is scaled by how much slower than
REFERENCE_S a fixed reference loop ran around it, because other tenants of a
shared machine slow a core by up to ~1.8x for seconds at a time. The raw
figures are printed in the `# meta` line.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced and
traced passes and reports per-layer metrics from timing wrappers around the
public functions of each module (tracing.py), plus the tracing overhead; the
spans themselves are written to perfbench/_traces/.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. `failed` counts jobs whose outcome failed its check;
`correct` is false when an exact outcome was wrong (a float outcome that is
not valid only counts as failed). The run needs the package sources in
src/forestmatrix of the same checkout and exits 2 without a result otherwise.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import checks
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN_FILE = BENCH_DIR / "golden.json"
GOLDEN_SEED = 1

MIN_JOBS = 100  # p90 needs ten samples beyond it
MAX_MEASURE_S = 120  # no new pass starts after this, whatever --seconds says
SETUP_REPEATS = 3
PROC_REPEATS = 5

END_TO_END_UNITS = {
    "jobs_per_s": "1/s",
    "job_s.p50": "s",
    "job_s.p90": "s",
    "ok_frac": "fraction",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def fresh_import():
    """Import the package from scratch, as a new process would."""
    for name in [k for k in sys.modules if k == "forestmatrix" or k.startswith("forestmatrix.")]:
        del sys.modules[name]
    return importlib.import_module("forestmatrix")


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        loose = ROOT / ".git" / ref[5:]
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def numpy_version() -> str:
    try:
        return importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        return "missing"


class Verdicts:
    """Checks each outcome once per distinct output; counts failed jobs."""

    def __init__(self, golden: dict | None, record: bool) -> None:
        self.golden = golden  # key -> digest, or None when the seed has no goldens
        self.record = record
        self.digests: dict[str, str] = {}
        self._seen: dict[tuple[str, str], list[str]] = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # failed exact jobs
        self.problems: Counter = Counter()

    def judge(self, job, outcome) -> None:
        self.attempted += 1
        if isinstance(outcome, Exception):
            problems = ["".join(traceback.format_exception_only(outcome)).strip()]
        else:
            try:
                problems = self._check(job, outcome)
            except Exception as exc:  # an outcome of the wrong shape fails its check
                problems = ["check raised " + "".join(
                    traceback.format_exception_only(exc)).strip()]
        if problems:
            self.failed += 1
            self.wrong += job.exact
            for p in problems:
                self.problems[(job.key, p)] += 1

    def _check(self, job, outcome) -> list[str]:
        digest = hashlib.sha256(job.canon(outcome)).hexdigest()
        cached = self._seen.get((job.key, digest))
        if cached is not None:
            return cached
        problems = job.check(outcome)
        if job.exact:
            first = self.digests.setdefault(job.key, digest)
            if first != digest:
                problems.append("exact output changed between passes")
            if self.golden is not None and not self.record and self.golden.get(job.key) != digest:
                problems.append(f"digest {digest[:16]} does not match the golden "
                                f"{str(self.golden.get(job.key))[:16]}")
        self._seen[(job.key, digest)] = problems
        return problems


# The reference loop takes this long on an uncontended core of the machine
# the benchmark was tuned on (2-vCPU VM, Python 3.11).
REFERENCE_S = 0.0035
_REFERENCE_ROWS = [[Fraction((i * 31 + j * 17) % 101, 1 + (i + j) % 3) for j in range(20)]
                   for i in range(20)]


def reference_seconds() -> float:
    """Time a fixed mix of Fraction, big-integer and tuple work like the program's.

    The garbage collector is off meanwhile, so that the objects a run keeps
    alive (traced spans, say) do not slow the reference itself.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        a = Fraction(1)
        for k in range(1, 150):
            a = a * Fraction(k + 1, k) - Fraction(1, k + 2)
        checks.det_mod(_REFERENCE_ROWS)
        subsets = [tuple(i for i in range(11) if mask >> i & 1) for mask in range(1500)]
        subsets.sort(key=len)
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Timeline:
    """Job durations, with a reference-loop sample taken before each job.

    On a shared machine other tenants slow a core by up to ~1.8x for seconds
    at a time, and the reference loop slows with it. Each job's duration is
    scaled by REFERENCE_S over the median of the five samples around the job,
    which reports it at the speed of an uncontended core; the raw durations
    are kept for the human-readable report.
    """

    def __init__(self) -> None:
        self.durations: list[float] = []
        self.refs: list[float] = []

    def scaled(self) -> list[float]:
        refs = self.refs + [reference_seconds()]
        return [d * REFERENCE_S / statistics.median(refs[max(0, g - 2):g + 3])
                for g, d in enumerate(self.durations)]


def run_pass(jobs, verdicts: Verdicts, timeline: Timeline, traced=False, tracer=None) -> range:
    """One pass over the job list; returns the timeline indices of its jobs."""
    first = len(timeline.durations)
    for job in jobs:
        timeline.refs.append(reference_seconds())
        if tracer is not None:
            tracer.job = len(timeline.durations)
        start = perf_counter()
        try:
            outcome = job.run(traced)
        except Exception as exc:  # a failing job is counted and reported, the run goes on
            outcome = exc
        timeline.durations.append(perf_counter() - start)
        spans_file = getattr(outcome, "spans_file", None)
        if traced and spans_file is not None:
            recorded = json.loads(spans_file.read_text(encoding="utf-8"))
            tracer.extend(recorded["names"], recorded["spans"], tracer.job)
            spans_file.unlink()
        verdicts.judge(job, outcome)
    return range(first, len(timeline.durations))


def reference_scale() -> float:
    return REFERENCE_S / statistics.median(reference_seconds() for _ in range(5))


def set_up(name: str, seed: int, workdir: Path, env: dict):
    """Import the package, generate inputs and warm up, SETUP_REPEATS times.

    Returns the jobs of the last repetition and the median set-up time, at
    reference speed.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        before = reference_scale()
        start = perf_counter()
        fm = fresh_import()
        jobs, warmup = workloads.WORKLOADS[name](fm, seed, workdir, env)
        for call in warmup:
            call()
        elapsed = perf_counter() - start
        times.append(elapsed * (before + reference_scale()) / 2)
    return jobs, statistics.median(times)


def interpreter_costs(env: dict) -> tuple[float, float]:
    """Median start-up of a bare interpreter, and the extra of importing forestmatrix.cli."""
    def median_run(code: str) -> float:
        times = []
        for _ in range(PROC_REPEATS):
            scale = reference_scale()
            start = perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True,
                           timeout=workloads.CHILD_TIMEOUT_S)
            times.append((perf_counter() - start) * scale)
        return statistics.median(times)
    bare = median_run("pass")
    return bare, median_run("import forestmatrix.cli") - bare


def another_pass(elapsed: float, passes: int, seconds: float, jobs: int = MIN_JOBS) -> bool:
    """Whether one more pass of the mean length so far still ends within `seconds`."""
    if elapsed >= MAX_MEASURE_S:
        return False
    return elapsed * (passes + 1) / passes <= seconds or jobs < MIN_JOBS


def measure(name: str, jobs, verdicts: Verdicts, seconds: float):
    timeline = Timeline()
    passes = 0
    start = perf_counter()
    while True:
        run_pass(jobs, verdicts, timeline)
        passes += 1
        if not another_pass(perf_counter() - start, passes, seconds, len(timeline.durations)):
            break
    scaled = timeline.scaled()
    deciles = statistics.quantiles(scaled, n=10)
    if name == "cli-process":
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "jobs_per_s": len(scaled) / sum(scaled),
        "job_s.p50": statistics.median(scaled),
        "job_s.p90": deciles[8],
        "ok_frac": (verdicts.attempted - verdicts.failed) / verdicts.attempted,
        "peak_rss_mb": rss_kb / 1024,
    }
    raw = timeline.durations
    info = {"jobs": len(raw), "passes": passes, "jobs_per_pass": len(jobs),
            "beyond_p90": sum(d > deciles[8] for d in scaled),
            "measured_s": sum(raw), "raw_jobs_per_s": len(raw) / sum(raw),
            "raw_job_s.p50": statistics.median(raw),
            "raw_job_s.p90": statistics.quantiles(raw, n=10)[8],
            "reference_median_s": statistics.median(timeline.refs)}
    return metrics, info


def measure_traced(name: str, seed: int, jobs, verdicts: Verdicts, seconds: float, env: dict):
    """Alternate untraced and traced passes; per-layer metrics are per traced pass."""
    tracer = tracing.Tracer()
    in_process = name != "cli-process"
    timeline = Timeline()
    passes: dict[bool, list[range]] = {False: [], True: []}
    start = perf_counter()
    while not passes[True] or another_pass(perf_counter() - start, len(passes[True]), seconds):
        for traced in (False, True):
            if traced and in_process:
                tracer.install()
            try:
                passes[traced].append(run_pass(jobs, verdicts, timeline, traced,
                                               tracer if traced else None))
            finally:
                tracer.uninstall()
    # One factor for the whole run, from the untraced passes only: the spans
    # held in memory slow the reference loop too, and per-job factors would
    # hide that part of the tracing overhead.
    scale = REFERENCE_S / statistics.median(timeline.refs[g] for r in passes[False] for g in r)
    raw = {traced: statistics.fmean(sum(timeline.durations[g] for g in indices)
                                    for indices in ranges)
           for traced, ranges in passes.items()}
    walls = {traced: wall * scale for traced, wall in raw.items()}
    count = len(passes[True])
    totals = tracing.aggregate(tracer.names, tracer.spans, scale)
    metrics = {key: totals.get(key, 0.0) / count for key in tracing.metric_names()}
    metrics["cli.proc.start_s"], metrics["cli.proc.import_s"] = interpreter_costs(env)
    metrics["trace.wall_s"] = walls[True]
    metrics["trace.untraced_wall_s"] = walls[False]
    metrics["trace.overhead_s"] = walls[True] - walls[False]

    traces = BENCH_DIR / "_traces"
    traces.mkdir(exist_ok=True)
    spans_path = traces / f"{name}-seed{seed}.tsv"
    tracer.write(spans_path)
    module_self = sum(metrics[f"{m}.self_s"] for m in tracing.MODULES)
    info = {"traced_passes": count, "spans": len(tracer.spans),
            "raw_trace_wall_s": raw[True], "raw_untraced_wall_s": raw[False],
            "reference_median_s": statistics.median(timeline.refs),
            "module_self_sum_s": module_self, "spans_file": str(spans_path.relative_to(ROOT))}
    problems = []
    if module_self > walls[True]:
        problems.append(f"module self times sum to {module_self} s, more than the traced "
                        f"wall time {walls[True]} s")
    return metrics, info, problems


def load_golden() -> dict:
    try:
        return json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return {}


def run_workload(args) -> int:
    name = args.workload
    # One core for the bench and every child it starts: the reference loop then
    # runs where the jobs run, and the children's BLAS gets that one thread.
    machine_cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, machine_cpus[:1])
    nproc = len(os.sched_getaffinity(0))
    env = workloads.child_env(SRC, nproc)
    golden = load_golden().get(name, {}) if args.seed == GOLDEN_SEED else None
    verdicts = Verdicts(golden, record=args.write_golden)
    work_root = BENCH_DIR / "_work"
    work_root.mkdir(exist_ok=True)
    workdir = work_root / f"{name}-{os.getpid()}"
    workdir.mkdir()
    try:
        jobs, setup_s = set_up(name, args.seed, workdir, env)
        if args.trace:
            metrics, info, problems = measure_traced(name, args.seed, jobs, verdicts,
                                                     args.seconds, env)
            units = {key: "s" if key.endswith("_s") else "count" for key in metrics}
        else:
            metrics, info = measure(name, jobs, verdicts, args.seconds)
            metrics["setup_s"] = setup_s
            units = END_TO_END_UNITS
            problems = []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for (key, problem), count in sorted(verdicts.problems.items()):
        print(f"check failed: {name} {key} (x{count}): {problem}", file=sys.stderr)
    for problem in problems:
        print(f"check failed: {name}: {problem}", file=sys.stderr)
    correct = verdicts.wrong == 0 and not problems
    if args.write_golden:
        if args.seed != GOLDEN_SEED or not correct:
            print("error: golden digests are recorded only from a correct run on seed "
                  f"{GOLDEN_SEED}", file=sys.stderr)
            return 1
        recorded = load_golden()
        recorded[name] = dict(sorted(verdicts.digests.items()))
        GOLDEN_FILE.write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")

    meta = {"workload": name, "seed": args.seed, "trace": args.trace, "git_sha": git_sha(),
            "python": platform.python_version(), "numpy": numpy_version(), "nproc": nproc,
            "machine_nproc": len(machine_cpus),
            "golden_checked": golden is not None and not args.write_golden, **info}
    print("# meta " + json.dumps(meta))
    for key, value in metrics.items():
        print(f"# {name} {key} = {value:.6g} {units[key]}")
    print(json.dumps({
        "correct": correct,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process (peak RSS is per process), one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        child = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if child.returncode not in (0, 1) or not lines:
            print(f"error: workload {name} exited {child.returncode}", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = value
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help=f"record the exact outcomes of seed {GOLDEN_SEED} in golden.json")
    args = parser.parse_args()
    if not (SRC / "forestmatrix" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC / 'forestmatrix'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
