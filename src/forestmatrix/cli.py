"""Command-line interface.

Reads a graph file, runs one operation, prints a deterministic JSON (default)
or TSV document. Exact mode serializes every value as an integer or "p/q"
string; float mode emits binary64 numbers and exists for large instances
only, it never backs `verify`. numpy is imported by float-mode commands only.

Exit codes: 0 success, 1 file parse error, 2 validation error, 3 singular
forest matrix, 4 enumeration guard exceeded, 5 verify found a failing check,
6 a float-mode result is infinite or NaN (nothing is written to stdout).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from fractions import Fraction
from pathlib import Path

from .forest import (
    SingularForestMatrixError,
    accessibility,
    charpoly_forest_coeffs,
    cofactor_poly,
    forest_cofactor,
    forest_det,
    forest_matrix_report,
    graph_matrix,
    signed_cofactor_poly,
)
from .graphfile import GraphParseError, parse_graph
from .graphs import AnyGraph, GraphValidationError, Multidigraph
from .linalg import SingularMatrixError, SquareMatrix
from .oracle import (
    DEFAULT_GUARD,
    Guard,
    GuardExceededError,
    enum_diverging_forests,
    enum_diverging_trees,
    enum_rooted_forests,
    enum_spanning_trees,
    filter_diverging,
    filter_rooted,
    filter_roots,
    diverging_roots,
    set_weight,
    weight_of,
)
from .verify import run_all_checks

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_VALIDATION = 2
EXIT_SINGULAR = 3
EXIT_GUARD = 4
EXIT_CHECK_FAILED = 5
EXIT_NONFINITE = 6

# Largest --max-enum: a forest scan visits at most 2**instances subsets, so
# this caps one scan at 2**24 (about 1.7e7) subsets.
MAX_ENUM = 24

_FLOAT_COMMANDS = {"laplacian", "forest-matrix", "det", "cofactor", "accessibility", "charpoly"}


def entry() -> None:
    raise SystemExit(main())


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with warnings.catch_warnings():
            if args.mode == "float":  # an overflow is reported below, with exit 6
                warnings.simplefilter("ignore", RuntimeWarning)
            code, payload = args.handler(args)
    except GraphParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"error: cannot read input: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except GraphValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SingularMatrixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except GuardExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    if args.mode == "float" and not all(map(_finite, payload.values())):
        print(
            f"error: the float result of '{args.command}' overflowed to infinity or NaN; "
            "use --mode exact for the exact value",
            file=sys.stderr,
        )
        return EXIT_NONFINITE
    if args.output == "json":
        print(json.dumps(payload, indent=2, allow_nan=False))
    else:
        for line in _tsv_lines(payload):
            print(line)
    return code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forestmatrix",
        description="Exact spanning-forest algebra for weighted multigraphs and multidigraphs.",
        epilog="exit codes: 0 ok, 1 parse, 2 validation, 3 singular, 4 guard, 5 failed check, "
        "6 non-finite float result",
    )
    sub = parser.add_subparsers(required=True, metavar="command")

    def add(name: str, help_text: str, *, lam=False, pair=False, enum=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("path", help="graph file")
        p.add_argument("--mode", choices=("exact", "float"), default="exact")
        p.add_argument("--output", choices=("json", "tsv"), default="json")
        if lam:
            p.add_argument(
                "--lambda", dest="lam", default="1", metavar="RATIONAL",
                help="diagonal shift of the forest matrix (default 1)",
            )
        if pair:
            p.add_argument("--from", dest="from_vertex", type=int, metavar="I",
                           help="1-based start vertex")
            p.add_argument("--to", dest="to_vertex", type=int, metavar="J",
                           help="1-based target vertex")
        if enum:
            p.add_argument("--max-enum", type=int, metavar="N",
                           help="raise the enumeration guard to N vertices and N instances "
                           f"(at most {MAX_ENUM})")
        p.set_defaults(command=name)
        return p

    add("laplacian", "Laplacian / Kirchhoff matrix").set_defaults(handler=_cmd_laplacian)
    add("forest-matrix", "forest matrix W = lambda*I + L and det W", lam=True).set_defaults(
        handler=_cmd_forest_matrix
    )
    add("det", "determinant of W (total spanning-forest weight)", lam=True).set_defaults(
        handler=_cmd_det
    )
    add("cofactor", "cofactor of one entry of W", lam=True, pair=True).set_defaults(
        handler=_cmd_cofactor
    )
    add("accessibility", "relative forest-accessibility matrix Q = W**-1", lam=True).set_defaults(
        handler=_cmd_accessibility
    )
    add("charpoly", "coefficients of det(lambda*I + L), constant first").set_defaults(
        handler=_cmd_charpoly
    )
    p = add("cofactor-poly", "cofactor of W as a polynomial in lambda", pair=True)
    p.add_argument("--signed", action="store_true",
                   help="cofactor of lambda*I - L instead (arc-parity signs)")
    p.set_defaults(handler=_cmd_cofactor_poly)

    p = add("enumerate", "list spanning trees or forests with weights", pair=True, enum=True)
    p.add_argument("--kind", choices=("trees", "rooted-forests", "diverging-forests"),
                   help="default: the forest kind matching the graph")
    p.add_argument("--roots", metavar="LIST",
                   help="keep only forests rooted exactly at this comma-separated 1-based vertex list")
    p.set_defaults(handler=_cmd_enumerate)

    add("verify", "run every identity check against brute-force enumeration",
        enum=True).set_defaults(handler=_cmd_verify)
    return parser


# -- shared helpers ----------------------------------------------------------


def _load(args) -> AnyGraph:
    text = Path(args.path).read_text(encoding="utf-8")
    graph = parse_graph(text)
    if args.mode == "float" and args.command not in _FLOAT_COMMANDS:
        raise GraphValidationError(
            f"float mode does not support '{args.command}'; exact results only"
        )
    return graph


def _lam(args) -> Fraction:
    try:
        return Fraction(args.lam)
    except (ValueError, ZeroDivisionError):
        raise GraphValidationError(f"--lambda {args.lam!r} is not a rational literal") from None


def _vertex(value, graph: AnyGraph, flag: str) -> int:
    if value is None:
        raise GraphValidationError(f"{flag} is required for this command")
    if not (1 <= value <= graph.n):
        raise GraphValidationError(f"{flag} {value} out of range 1..{graph.n}")
    return value - 1


def _guard(args) -> Guard:
    limit = getattr(args, "max_enum", None)
    if limit is None:
        return DEFAULT_GUARD
    if limit < 1:
        raise GraphValidationError(f"--max-enum must be positive, got {limit}")
    if limit > MAX_ENUM:
        raise GuardExceededError(f"--max-enum {limit} is above the ceiling of {MAX_ENUM}")
    return Guard(max_vertices=limit, max_instances=limit)


def _head(args, graph: AnyGraph) -> dict:
    return {"command": args.command, "n": graph.n, "mode": args.mode}


def _matrix_out(matrix: SquareMatrix) -> list[list[str]]:
    return [[str(x) for x in row] for row in matrix.entries]


def _finite(value) -> bool:
    """False if a float payload value, or a list or matrix of them, holds inf or NaN."""
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, list):
        if value and isinstance(value[0], list):
            return all(map(_finite, value))
        return all(map(math.isfinite, value))
    return True


# -- command handlers --------------------------------------------------------


def _cmd_laplacian(args):
    graph = _load(args)
    if args.mode == "float":
        from . import floatops
        rows = floatops.graph_matrix_array(graph).tolist()
    else:
        rows = _matrix_out(graph_matrix(graph))
    return EXIT_OK, {**_head(args, graph), "matrix": rows}


def _cmd_forest_matrix(args):
    graph = _load(args)
    lam = _lam(args)
    if args.mode == "float":
        from . import floatops
        arr = floatops.forest_matrix_array(graph, float(lam))
        payload = {
            "lambda": float(lam),
            "matrix": arr.tolist(),
            "detW": floatops.det_value(graph, float(lam)),
        }
    else:
        report = forest_matrix_report(graph, lam)
        payload = {
            "lambda": str(report.lam),
            "matrix": _matrix_out(report.matrix),
            "detW": str(report.det),
        }
    return EXIT_OK, {**_head(args, graph), **payload}


def _cmd_det(args):
    graph = _load(args)
    lam = _lam(args)
    if args.mode == "float":
        from . import floatops
        value = floatops.det_value(graph, float(lam))
    else:
        value = str(forest_det(graph, lam))
    return EXIT_OK, {**_head(args, graph), "detW": value}


def _cmd_cofactor(args):
    graph = _load(args)
    lam = _lam(args)
    i = _vertex(args.from_vertex, graph, "--from")
    j = _vertex(args.to_vertex, graph, "--to")
    if args.mode == "float":
        from . import floatops
        value = floatops.cofactor_value(graph, i, j, float(lam))
    else:
        value = str(forest_cofactor(graph, i, j, lam))
    return EXIT_OK, {**_head(args, graph), "i": i + 1, "j": j + 1, "cofactor": value}


def _cmd_accessibility(args):
    graph = _load(args)
    lam = _lam(args)
    if args.mode == "float":
        from . import floatops
        try:
            rows = floatops.accessibility_array(graph, float(lam)).tolist()
        except Exception as exc:  # LinAlgError: W numerically singular
            raise SingularForestMatrixError(str(exc)) from None
    else:
        rows = _matrix_out(accessibility(graph, lam).matrix)
    return EXIT_OK, {**_head(args, graph), "matrix": rows}


def _cmd_charpoly(args):
    graph = _load(args)
    if args.mode == "float":
        from . import floatops
        coeffs = [float(c) for c in floatops.charpoly_coeffs(graph)]
    else:
        coeffs = [str(c) for c in charpoly_forest_coeffs(graph).coeffs]
    return EXIT_OK, {**_head(args, graph), "coeffs": coeffs}


def _cmd_cofactor_poly(args):
    graph = _load(args)
    i = _vertex(args.from_vertex, graph, "--from")
    j = _vertex(args.to_vertex, graph, "--to")
    poly = signed_cofactor_poly(graph, i, j) if args.signed else cofactor_poly(graph, i, j)
    return EXIT_OK, {
        **_head(args, graph),
        "i": i + 1,
        "j": j + 1,
        "signed": bool(args.signed),
        "coeffs": [str(c) for c in poly.coeffs],
    }


def _parse_roots(spec: str, graph: AnyGraph) -> frozenset[int]:
    out = set()
    for part in spec.split(","):
        part = part.strip()
        try:
            v = int(part)
        except ValueError:
            raise GraphValidationError(f"--roots entry {part!r} is not an integer") from None
        if not (1 <= v <= graph.n):
            raise GraphValidationError(f"--roots vertex {v} out of range 1..{graph.n}")
        out.add(v - 1)
    return frozenset(out)


def _cmd_enumerate(args):
    graph = _load(args)
    guard = _guard(args)
    directed = isinstance(graph, Multidigraph)
    kind = args.kind or ("diverging-forests" if directed else "rooted-forests")
    if kind == "rooted-forests" and directed:
        raise GraphValidationError("rooted-forests enumeration needs an undirected graph")
    if kind == "diverging-forests" and not directed:
        raise GraphValidationError("diverging-forests enumeration needs a directed graph")

    members: list[dict]
    if kind == "trees":
        if args.roots is not None:
            raise GraphValidationError("--roots only applies to forest kinds")
        if directed:
            root = _vertex(args.from_vertex, graph, "--from")
            trees = enum_diverging_trees(graph, root, guard)
            members = [
                {"instances": sorted(t.arcs), "roots": [root + 1],
                 "weight": str(weight_of(t.arcs, graph))}
                for t in trees
            ]
            totals = [t.arcs for t in trees]
        else:
            trees = enum_spanning_trees(graph, guard)
            members = [
                {"instances": sorted(t), "weight": str(weight_of(t, graph))} for t in trees
            ]
            totals = list(trees)
    else:
        forests = enum_diverging_forests(graph, guard) if directed else enum_rooted_forests(graph, guard)
        if args.roots is not None:
            forests = filter_roots(graph, forests, _parse_roots(args.roots, graph))
        if args.from_vertex is not None or args.to_vertex is not None:
            i = _vertex(args.from_vertex, graph, "--from")
            j = _vertex(args.to_vertex, graph, "--to")
            forests = (
                filter_diverging(graph, forests, i, j)
                if directed
                else filter_rooted(graph, forests, i, j)
            )
        members = []
        for f in forests:
            inst = f.arcs if directed else f.edges
            roots = diverging_roots(graph, f) if directed else f.roots
            members.append(
                {"instances": sorted(inst), "roots": sorted(v + 1 for v in roots),
                 "weight": str(weight_of(inst, graph))}
            )
        totals = [f.arcs if directed else f.edges for f in forests]

    members.sort(key=lambda m: (len(m["instances"]), m["instances"], m.get("roots", [])))
    return EXIT_OK, {
        **_head(args, graph),
        "kind": kind,
        "forests": members,
        "count": len(members),
        "total": str(set_weight(totals, graph)),
    }


def _cmd_verify(args):
    graph = _load(args)
    checks = run_all_checks(graph, _guard(args))
    all_pass = all(c.passed for c in checks)
    payload = {
        **_head(args, graph),
        "report": {
            "all_pass": all_pass,
            "checks": [
                {"name": c.name, "passed": c.passed, "skipped": c.skipped, "detail": c.detail}
                for c in checks
            ],
        },
    }
    return (EXIT_OK if all_pass else EXIT_CHECK_FAILED), payload


# -- TSV rendering -----------------------------------------------------------


def _cell(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def _tsv_lines(payload: dict):
    if "report" in payload:
        for c in payload["report"]["checks"]:
            state = "skip" if c["skipped"] else ("pass" if c["passed"] else "fail")
            yield f"{c['name']}\t{state}"
    elif "forests" in payload:
        for m in payload["forests"]:
            instances = ",".join(str(i) for i in m["instances"]) or "-"
            roots = ",".join(str(r) for r in m.get("roots", ())) or "-"
            yield f"{instances}\t{roots}\t{m['weight']}"
        yield f"total\t{payload['total']}"
    elif "matrix" in payload:
        for row in payload["matrix"]:
            yield "\t".join(_cell(x) for x in row)
        if "detW" in payload:
            yield f"detW\t{_cell(payload['detW'])}"
    elif "coeffs" in payload:
        yield "\t".join(_cell(c) for c in payload["coeffs"])
    elif "cofactor" in payload:
        yield _cell(payload["cofactor"])
    elif "detW" in payload:
        yield _cell(payload["detW"])


if __name__ == "__main__":
    entry()
