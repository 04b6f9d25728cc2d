"""The three workloads: their seed-generated job lists and output checks.

Each workload function returns its job list and its warm-up calls. A
job's `run` is the only timed code. Its outcome goes to `check` (problems
found, empty when correct) and `canon` (the exact bytes behind the golden
digest), both outside the timed region.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from random import Random
from typing import Callable, NamedTuple

import checks
from checks import BenchGraph

BENCH_DIR = Path(__file__).resolve().parent

POSITIVE_POOL = tuple(Fraction(x) for x in ("1", "2", "1/2", "3/2", "1/3"))  # ROADMAP baseline
SIGNED_POOL = tuple(Fraction(x) for x in ("1", "-1", "2", "-2", "1/2", "-1/2", "3/2", "1/3", "0"))

CHILD_TIMEOUT_S = 120


@dataclass
class Job:
    key: str
    run: Callable[[bool], object]  # argument: traced (CLI jobs then run the trace child)
    check: Callable[[object], list[str]]
    canon: Callable[[object], bytes]
    exact: bool = True  # compared with the golden digest; a wrong one makes the run incorrect


def random_graph(rng: Random, directed: bool, n: int, m: int, pool, parallel=False) -> BenchGraph:
    """A connected graph: a random spanning tree (diverging, if directed) plus
    random instances up to m; `parallel` makes one extra instance parallel to
    a tree instance. Connected inputs keep the work per (n, m) steady across
    seeds."""
    order = list(range(n))
    rng.shuffle(order)
    instances = [(order[rng.randrange(k)], order[k], rng.choice(pool)) for k in range(1, n)]
    if parallel and m > len(instances):
        u, v, _ = rng.choice(instances)
        instances.append((u, v, rng.choice(pool)))
    while len(instances) < m:
        u = rng.randrange(n)
        v = rng.randrange(n - 1)
        instances.append((u, v + (v >= u), rng.choice(pool)))
    rng.shuffle(instances)
    return BenchGraph(directed, n, tuple(instances))


def _pair(rng: Random, n: int, distinct: bool) -> tuple[int, int]:
    i = rng.randrange(n)
    if not distinct:
        return i, rng.randrange(n)
    j = rng.randrange(n - 1)
    return i, j + (j >= i)


def _text(value) -> bytes:
    return str(value).encode()


def _matrix_text(matrix) -> bytes:
    return "\n".join("\t".join(str(x) for x in row) for row in matrix.entries).encode()


def _coeffs_text(poly) -> bytes:
    return ",".join(str(c) for c in poly.coeffs).encode()


# -- exact-kernels -------------------------------------------------------------


def exact_kernels(fm, seed: int, workdir: Path, env: dict) -> tuple[list[Job], list]:
    """Library kernels on random graphs with m = 3n and the positive ROADMAP weights."""
    rng = Random(f"exact-kernels:{seed}")
    jobs: list[Job] = []

    def add(key, bg, call, check, canon):
        g = bg.library(fm)
        jobs.append(Job(key, lambda traced: call(g), check, canon))

    # Two graphs per (call, size, direction): more distinct inputs smooth the
    # job-time distribution, so its quantiles move less from seed to seed.
    for copy, directed in ((0, False), (0, True), (1, False), (1, True)):
        kind = f"{'d' if directed else 'u'}{'' if copy == 0 else 'b'}"
        for n in (64, 96, 128):
            bg = random_graph(rng, directed, n, 3 * n, POSITIVE_POOL)
            add(f"det/{kind}{n}", bg, lambda g: fm.forest_det(g),
                lambda v, bg=bg: checks.check_det(v, bg.graph_matrix()), _text)
            bg = random_graph(rng, directed, n, 3 * n, POSITIVE_POOL)
            i, j = _pair(rng, n, distinct=True)
            add(f"cofactor/{kind}{n}", bg, lambda g, i=i, j=j: fm.forest_cofactor(g, i, j),
                lambda v, bg=bg, i=i, j=j: checks.check_cofactor(v, bg.graph_matrix(), i, j),
                _text)
        for n in (16, 32, 48):
            bg = random_graph(rng, directed, n, 3 * n, POSITIVE_POOL)
            add(f"accessibility/{kind}{n}", bg, lambda g: fm.accessibility(g),
                lambda q, bg=bg: checks.check_inverse([list(r) for r in q.matrix.entries],
                                                      bg.graph_matrix()),
                lambda q: _matrix_text(q.matrix))
        for n in (12, 16, 20):
            bg = random_graph(rng, directed, n, 3 * n, POSITIVE_POOL)
            add(f"charpoly/{kind}{n}", bg, lambda g: fm.charpoly_forest_coeffs(g),
                lambda p, bg=bg: checks.check_charpoly(list(p.coeffs), bg.graph_matrix()),
                _coeffs_text)
        for n in (10, 11, 12):
            for signed, name in ((False, "cofactor_poly"), (True, "signed_cofactor_poly")):
                bg = random_graph(rng, directed, n, 3 * n, POSITIVE_POOL)
                i, j = _pair(rng, n, distinct=False)
                add(f"{name}/{kind}{n}", bg,
                    lambda g, name=name, i=i, j=j: getattr(fm, name)(g, i, j),
                    lambda p, bg=bg, i=i, j=j, s=signed:
                        checks.check_cofactor_poly(list(p.coeffs), bg.graph_matrix(), i, j, s),
                    _coeffs_text)

    warmup = []
    for directed in (False, True):
        g = random_graph(rng, directed, 4, 6, POSITIVE_POOL).library(fm)
        for call in (fm.forest_det, fm.accessibility, fm.charpoly_forest_coeffs,
                     lambda g: fm.forest_cofactor(g, 0, 1),
                     lambda g: fm.cofactor_poly(g, 0, 1),
                     lambda g: fm.signed_cofactor_poly(g, 1, 1)):
            warmup.append(lambda call=call, g=g: call(g))
    return jobs, warmup


# -- verify-oracle -------------------------------------------------------------

# (n, m) of each job; every size but the heaviest gets two graphs, so the
# job-time quantiles move less from seed to seed. Undirected graphs stay within
# the default guard (2m <= 16); n=6, m=8 is where contraction-minors dominates.
VERIFY_UNDIRECTED = 2 * ((4, 3), (4, 5), (4, 7), (5, 4), (5, 5), (5, 6), (5, 7), (6, 5),
                         (6, 6)) + ((6, 8),)
VERIFY_DIRECTED = 2 * ((4, 4), (4, 5), (4, 6), (4, 8), (4, 10), (5, 5), (5, 6), (5, 7), (5, 8),
                       (5, 10), (6, 5), (6, 6), (6, 7), (6, 8), (6, 9), (6, 10))


def _report(result) -> list[tuple[str, bool, bool]]:
    return [(c.name, c.passed, c.skipped) for c in result]


def verify_oracle(fm, seed: int, workdir: Path, env: dict) -> tuple[list[Job], list]:
    """run_all_checks on small graphs with signed (and zero) weights and a parallel pair."""
    rng = Random(f"verify-oracle:{seed}")

    def job(key, bg):
        g = bg.library(fm)
        return Job(key, lambda traced: fm.run_all_checks(g),
                   lambda r: checks.check_report(_report(r)),
                   lambda r: json.dumps(_report(r)).encode())

    jobs = []
    for directed, sizes in ((False, VERIFY_UNDIRECTED), (True, VERIFY_DIRECTED)):
        for index, (n, m) in enumerate(sizes):
            bg = random_graph(rng, directed, n, m, SIGNED_POOL, parallel=True)
            jobs.append(job(f"verify/{'d' if directed else 'u'}{n}m{m}#{index}", bg))
    warmup = [lambda g=random_graph(rng, d, 3, 3, SIGNED_POOL, parallel=True).library(fm):
              fm.run_all_checks(g) for d in (False, True)]
    return jobs, warmup


# -- cli-process ---------------------------------------------------------------


class CliOutcome(NamedTuple):
    code: int
    stdout: bytes
    stderr: bytes
    spans_file: Path | None


def child_env(src: Path, threads: int) -> dict:
    """Environment of every CLI child: the checkout's package, BLAS capped at `threads`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = str(threads)
    return env


def _cli_runner(args: list[str], env: dict, workdir: Path, key: str):
    spans = workdir / (key.replace("/", "_") + ".spans.json")

    def run(traced: bool) -> CliOutcome:
        if traced:
            argv = [sys.executable, str(BENCH_DIR / "trace_child.py"), str(spans), *args]
        else:
            argv = [sys.executable, "-m", "forestmatrix.cli", *args]
        p = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
                           timeout=CHILD_TIMEOUT_S, check=False)
        return CliOutcome(p.returncode, p.stdout, p.stderr, spans if traced else None)
    return run


def _cli_canon(command: str, output: str):
    def canon(o: CliOutcome) -> bytes:
        stdout = o.stdout
        if command == "verify" and output == "json":
            # The check details are diagnostics; names and verdicts are the result.
            try:
                payload = json.loads(stdout)
                for c in payload["report"]["checks"]:
                    c.pop("detail", None)
                stdout = json.dumps(payload, sort_keys=True).encode()
            except (ValueError, KeyError, TypeError):
                pass  # digest the raw bytes; the check reports the malformed output
        return b"%d\n" % o.code + stdout
    return canon


def _cli_check(command, output, mode, bg, pair, signed, expected_code):
    def check(o: CliOutcome) -> list[str]:
        if o.code != expected_code:
            return [f"exit code {o.code}, want {expected_code}: "
                    f"{o.stderr.decode(errors='replace').strip()[-200:]}"]
        if expected_code != 0:
            return [] if o.stdout == b"" else ["a failing run wrote to stdout"]
        try:
            payload = checks.parse_cli(command, output, o.stdout.decode("utf-8"))
            return checks.check_cli_values(command, mode, payload, bg, pair, signed)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"{type(exc).__name__}: {exc}"]
    return check


def _corrupt(rng: Random, bg: BenchGraph, defect: str) -> str:
    lines = bg.text().splitlines()
    k = 1 + rng.randrange(len(lines) - 1)
    u, v, w = lines[k].split()
    if defect == "bad-header":
        lines[0] = f"graph mixed {bg.n}"
    elif defect == "bad-weight":
        lines[k] = f"{u} {v} 1/0"
    elif defect == "self-loop":
        lines[k] = f"{u} {u} {w}"
    else:
        lines[k] = f"{u} {bg.n + 1} {w}"
    return "\n".join(lines) + "\n"


MALFORMED = (("bad-header", 1), ("bad-weight", 1), ("self-loop", 2), ("vertex-range", 2))


def cli_process(fm, seed: int, workdir: Path, env: dict) -> tuple[list[Job], list]:
    """One `python -m forestmatrix.cli` subprocess per job."""
    rng = Random(f"cli-process:{seed}")
    jobs: list[Job] = []

    def add(key, command, bg, path=None, mode="exact", output="json",
            pair=None, signed=False, expected_code=0):
        if path is None:
            path = workdir / (key.replace("/", "_") + ".graph")
            path.write_text(bg.text(), encoding="utf-8")
        args = [command, str(path), "--mode", mode, "--output", output]
        if pair is not None:
            args += ["--from", str(pair[0] + 1), "--to", str(pair[1] + 1)]
        if signed:
            args.append("--signed")
        jobs.append(Job(key, _cli_runner(args, env, workdir, key),
                        _cli_check(command, output, mode, bg, pair, signed, expected_code),
                        _cli_canon(command, output), exact=mode == "exact"))

    small = (("laplacian", True, 20, False), ("det", False, 20, False),
             ("cofactor", True, 16, True), ("accessibility", False, 12, False),
             ("charpoly", True, 12, False), ("cofactor-poly", True, 8, True))
    for command, directed, n, with_pair in small:
        bg = random_graph(rng, directed, n, 3 * n, POSITIVE_POOL)
        pair = _pair(rng, n, distinct=command == "cofactor") if with_pair else None
        signed = command == "cofactor-poly"
        for output in ("json", "tsv"):
            add(f"{command}/{output}", command, bg, output=output, pair=pair, signed=signed)
    bg = random_graph(rng, False, 5, 6, SIGNED_POOL, parallel=True)
    for output in ("json", "tsv"):
        add(f"verify/{output}", "verify", bg, output=output)
    add("det/parse-heavy", "det", random_graph(rng, False, 40, 10_000, POSITIVE_POOL))
    big = random_graph(rng, True, 1000, 3000, POSITIVE_POOL)
    add("float-det", "det", big, mode="float")
    add("float-accessibility", "accessibility", big, path=workdir / "float-det.graph",
        mode="float", output="tsv")
    for defect, code in MALFORMED:
        bg = random_graph(rng, False, 10, 20, POSITIVE_POOL)
        path = workdir / f"{defect}.graph"
        path.write_text(_corrupt(rng, bg, defect), encoding="utf-8")
        add(f"malformed/{defect}", "det", bg, path=path, expected_code=code)

    tiny = random_graph(rng, False, 4, 6, POSITIVE_POOL)
    path = workdir / "warmup.graph"
    path.write_text(tiny.text(), encoding="utf-8")
    warmup = [lambda: _cli_runner(["det", str(path)], env, workdir, "warmup")(False)]
    return jobs, warmup


WORKLOADS = {
    "exact-kernels": exact_kernels,
    "verify-oracle": verify_oracle,
    "cli-process": cli_process,
}
