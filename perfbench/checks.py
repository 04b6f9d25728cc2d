"""Output checks that do not reuse the program's own algorithms.

Exact values are compared with a determinant modulo a prime computed here by
plain Gaussian elimination, with exact products (Q W = I), and with
structural identities of the forest polynomials. CLI stdout is parsed
strictly: JSON with NaN and Infinity rejected, TSV with every cell parsed.
Every check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction

P = 2**31 - 1  # prime modulus of the determinant cross-check

_EXACT = re.compile(r"-?\d+(/\d+)?\Z")


@dataclass(frozen=True)
class BenchGraph:
    """A generated input graph, 0-based, kept independent of the package."""

    directed: bool
    n: int
    instances: tuple[tuple[int, int, Fraction], ...]

    def text(self) -> str:
        """The graph in the forestmatrix file format."""
        kind = "directed" if self.directed else "undirected"
        lines = [f"graph {kind} {self.n}"]
        lines += [f"{u + 1} {v + 1} {w}" for u, v, w in self.instances]
        return "\n".join(lines) + "\n"

    def library(self, fm):
        """The same graph as a forestmatrix Multigraph or Multidigraph."""
        cls = fm.Multidigraph if self.directed else fm.Multigraph
        return cls(self.n, self.instances)

    def graph_matrix(self) -> list[list[Fraction]]:
        """Laplacian (undirected) or Kirchhoff matrix (row = head), built here."""
        m = [[Fraction(0)] * self.n for _ in range(self.n)]
        for u, v, w in self.instances:
            m[v][u] -= w
            m[v][v] += w
            if not self.directed:
                m[u][v] -= w
                m[u][u] += w
        return m


def shifted(lap: list[list[Fraction]], lam=1, sign=1) -> list[list[Fraction]]:
    """lam * I + sign * lap."""
    out = [[-x for x in row] if sign < 0 else row[:] for row in lap]
    for k, row in enumerate(out):
        row[k] += lam
    return out


def to_mod(x: Fraction) -> int:
    return x.numerator * pow(x.denominator, -1, P) % P


def det_mod(rows: list[list[Fraction]]) -> int:
    """det(rows) mod P by Gaussian elimination over GF(P)."""
    a = [[to_mod(x) for x in row] for row in rows]
    n = len(a)
    det = 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if a[r][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        pk = a[k]
        det = det * pk[k] % P
        inv = pow(pk[k], -1, P)
        tail = pk[k + 1:]
        for r in range(k + 1, n):
            row = a[r]
            f = row[k] * inv % P
            if f:
                row[k + 1:] = [(x - f * y) % P for x, y in zip(row[k + 1:], tail)]
    return det % P


def cofactor_mod(w: list[list[Fraction]], i: int, j: int) -> int:
    minor = [[x for c, x in enumerate(row) if c != j] for r, row in enumerate(w) if r != i]
    return (-1) ** (i + j) * det_mod(minor) % P


def check_det(value: Fraction, lap) -> list[str]:
    if to_mod(value) != det_mod(shifted(lap)):
        return [f"det W disagrees with det W mod {P}"]
    return []


def check_cofactor(value: Fraction, lap, i: int, j: int) -> list[str]:
    if to_mod(value) != cofactor_mod(shifted(lap), i, j):
        return [f"cofactor ({i}, {j}) of W disagrees with the cofactor mod {P}"]
    return []


def check_inverse(q: list[list[Fraction]], lap) -> list[str]:
    """Q W = I exactly, with W = I + L, and every row of Q sums to 1."""
    w = shifted(lap)
    n = len(w)
    if len(q) != n or any(len(row) != n for row in q):
        return [f"accessibility matrix is not {n} x {n}"]
    columns = [[(r, w[r][c]) for r in range(n) if w[r][c]] for c in range(n)]
    for i, row in enumerate(q):
        for c, col in enumerate(columns):
            if sum(row[r] * x for r, x in col) != (1 if i == c else 0):
                return [f"(Q W)[{i}][{c}] is not the identity entry"]
        if sum(row) != 1:
            return [f"row {i} of Q does not sum to 1"]
    return []


def check_charpoly(coeffs: list[Fraction], lap) -> list[str]:
    """Monic, constant term det L = 0, next-to-top = trace L, value at 1 = det(I + L)."""
    n = len(lap)
    problems = []
    if len(coeffs) != n + 1:
        return [f"charpoly has {len(coeffs)} coefficients, want {n + 1}"]
    if coeffs[n] != 1:
        problems.append("charpoly leading coefficient is not 1")
    if n and coeffs[0] != 0:
        problems.append("charpoly constant term is not 0")
    if n and coeffs[n - 1] != sum(lap[k][k] for k in range(n)):
        problems.append("charpoly coefficient n-1 is not trace L")
    if to_mod(sum(coeffs)) != det_mod(shifted(lap)):
        problems.append(f"charpoly at lambda=1 disagrees with det(I + L) mod {P}")
    return problems


def check_cofactor_poly(coeffs: list[Fraction], lap, i: int, j: int, signed: bool) -> list[str]:
    """Degree n-1 with top coefficient [i == j]; value at 1 is the cofactor of I +- L."""
    n = len(lap)
    if len(coeffs) != n:
        return [f"cofactor polynomial has {len(coeffs)} coefficients, want {n}"]
    problems = []
    if coeffs[n - 1] != (1 if i == j else 0):
        problems.append("cofactor polynomial top coefficient is not [i == j]")
    if to_mod(sum(coeffs)) != cofactor_mod(shifted(lap, 1, -1 if signed else 1), i, j):
        problems.append(f"cofactor polynomial at lambda=1 disagrees with the cofactor mod {P}")
    return problems


def check_report(checks: list[tuple[str, bool, bool]]) -> list[str]:
    """verify must run its 12 checks and pass (or skip) every one."""
    problems = [f"verify check {name} failed" for name, passed, skipped in checks
                if not (passed or skipped)]
    if len(checks) != 12:
        problems.append(f"verify ran {len(checks)} checks, want 12")
    return problems


# -- CLI stdout --------------------------------------------------------------


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


def strict_json(text: str):
    """json.loads that refuses NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def exact(cell) -> Fraction:
    if not isinstance(cell, str) or not _EXACT.match(cell):
        raise ValueError(f"{cell!r} is not an exact integer or p/q literal")
    return Fraction(cell)


def finite(cell) -> float:
    value = float(cell) if isinstance(cell, str) else cell
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(f"{cell!r} is not a finite number")
    return float(value)


def parse_cli(command: str, output: str, stdout: str) -> dict:
    """Normalise JSON or TSV stdout to the JSON payload's value fields.

    Raises ValueError on anything malformed, including non-finite numbers.
    """
    if output == "json":
        payload = strict_json(stdout)
        if payload.get("command") != command:
            raise ValueError(f"payload command {payload.get('command')!r}, want {command!r}")
        return payload
    lines = stdout.splitlines()
    rows = [line.split("\t") for line in lines]
    if command == "verify":
        checks = []
        for row in rows:
            if len(row) != 2 or row[1] not in ("pass", "fail", "skip"):
                raise ValueError(f"bad verify TSV line {row!r}")
            checks.append({"name": row[0], "passed": row[1] == "pass", "skipped": row[1] == "skip"})
        return {"report": {"checks": checks,
                           "all_pass": all(c["passed"] or c["skipped"] for c in checks)}}
    if command in ("laplacian", "accessibility"):
        return {"matrix": rows}
    if len(rows) != 1:
        raise ValueError(f"{command} TSV has {len(rows)} lines, want 1")
    if command in ("charpoly", "cofactor-poly"):
        return {"coeffs": rows[0]}
    if len(rows[0]) != 1:
        raise ValueError(f"{command} TSV line has {len(rows[0])} cells, want 1")
    return {"cofactor" if command == "cofactor" else "detW": rows[0][0]}


def check_cli_values(command: str, mode: str, payload: dict, graph: BenchGraph,
                     pair: tuple[int, int] | None, signed: bool) -> list[str]:
    """Check the parsed values of one CLI run against `graph`."""
    if mode == "float":
        if command == "det":
            finite(payload["detW"])
            return []
        rows = [[finite(x) for x in row] for row in payload["matrix"]]
        if len(rows) != graph.n or any(len(row) != graph.n for row in rows):
            return [f"float accessibility matrix is not {graph.n} x {graph.n}"]
        return [f"float accessibility row {i} sums to {math.fsum(row)!r}"
                for i, row in enumerate(rows) if abs(math.fsum(row) - 1.0) > 1e-8][:1]
    lap = graph.graph_matrix()
    if command == "laplacian":
        got = [[exact(x) for x in row] for row in payload["matrix"]]
        return [] if got == lap else ["laplacian differs from the graph matrix"]
    if command == "det":
        return check_det(exact(payload["detW"]), lap)
    if command == "cofactor":
        return check_cofactor(exact(payload["cofactor"]), lap, *pair)
    if command == "accessibility":
        return check_inverse([[exact(x) for x in row] for row in payload["matrix"]], lap)
    if command == "charpoly":
        return check_charpoly([exact(c) for c in payload["coeffs"]], lap)
    if command == "cofactor-poly":
        return check_cofactor_poly([exact(c) for c in payload["coeffs"]], lap, *pair, signed)
    if command == "verify":
        report = payload["report"]
        problems = check_report([(c["name"], c["passed"], c["skipped"]) for c in report["checks"]])
        if report["all_pass"] is not True:
            problems.append("verify all_pass is not true")
        return problems
    raise ValueError(f"no check for command {command!r}")
