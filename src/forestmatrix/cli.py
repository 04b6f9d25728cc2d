"""Command-line interface.

Reads a graph file, runs one operation, prints a deterministic JSON (default)
or TSV document. Exact mode serializes every value, at any length, as an
integer or "p/q" string; float mode emits binary64 numbers and exists for
large instances only, it never backs `verify`. The six float commands call the
same function names in either mode: `_backend` picks `forest` or its binary64
mirror `floatops`, and `_out` renders what comes back. A run imports only the
layers it uses: numpy in float mode, `oracle` and `verify` in the commands
that enumerate, and `json` for JSON output.

Exit codes: 0 success, 1 file parse error, 2 validation error, 3 singular
forest matrix, 4 enumeration guard exceeded, 5 verify found a failing check,
6 a float-mode input or result is beyond binary64, infinite or NaN (nothing
is written to stdout).
"""

from __future__ import annotations

import argparse
import sys
import warnings
from fractions import Fraction
from pathlib import Path

from . import forest
from .forest import cofactor_poly, signed_cofactor_poly
from .graphfile import GraphParseError, parse_graph
from .graphs import (
    DEFAULT_GUARD,
    AnyGraph,
    GraphValidationError,
    Guard,
    GuardExceededError,
    Multidigraph,
)
from .linalg import Polynomial, SingularMatrixError, SquareMatrix, _literal

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_VALIDATION = 2
EXIT_SINGULAR = 3
EXIT_GUARD = 4
EXIT_CHECK_FAILED = 5
EXIT_NONFINITE = 6

# Largest --max-enum: a forest enumeration tries at most prod(indeg + 1) <=
# 2**arcs parent choices, so this caps one enumeration of a digraph at 2**24
# (about 1.7e7) choices; an undirected graph is walked as its twin, 2 arcs per edge.
MAX_ENUM = 24

_FLOAT_COMMANDS = {"laplacian", "forest-matrix", "det", "cofactor", "accessibility", "charpoly"}

# The errors a command reports with an exit code instead of a traceback.
_ERROR_EXITS = {
    GraphParseError: EXIT_PARSE,
    OSError: EXIT_PARSE,
    UnicodeDecodeError: EXIT_PARSE,  # a graph file that is not UTF-8
    GraphValidationError: EXIT_VALIDATION,
    SingularMatrixError: EXIT_SINGULAR,
    GuardExceededError: EXIT_GUARD,
}

# Python's limit on int/str conversions, from 3.10.7 on; earlier there is none.
_get_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)
_set_digit_limit = getattr(sys, "set_int_max_str_digits", lambda limit: None)


def entry() -> None:
    raise SystemExit(main())


def main(argv=None) -> int:
    # The literal grammar bounds every number read, so the digit limit is lifted
    # while main runs: exact results print at any length, whatever the limit.
    limit = _get_digit_limit()
    _set_digit_limit(0)
    try:
        return _run(argv)
    finally:
        _set_digit_limit(limit)


def _run(argv) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with warnings.catch_warnings():
            if args.mode == "float":  # an overflow is reported below, with exit 6
                warnings.simplefilter("ignore", RuntimeWarning)
            graph = _load(args)
            code, payload = args.handler(args, graph)
    except tuple(_ERROR_EXITS) as exc:
        reading = "cannot read input: " if isinstance(exc, (OSError, UnicodeDecodeError)) else ""
        print(f"error: {reading}{exc}", file=sys.stderr)
        return next(code for kind, code in _ERROR_EXITS.items() if isinstance(exc, kind))
    except OverflowError:  # a float-mode input beyond binary64, or a result _out refused
        if args.mode != "float":
            raise
        print(
            f"error: a float input or result of '{args.command}' is beyond binary64, "
            "infinite or NaN; use --mode exact for the exact value",
            file=sys.stderr,
        )
        return EXIT_NONFINITE
    payload = {"command": args.command, "n": graph.n, "mode": args.mode, **payload}
    if args.output == "json":
        import json

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
                help="diagonal shift of the forest matrix: an integer, decimal or p/q "
                "as in graph files (default 1)",
            )
        if pair:
            p.add_argument("--from", dest="from_vertex", metavar="I",
                           help="1-based start vertex, ASCII digits")
            p.add_argument("--to", dest="to_vertex", metavar="J",
                           help="1-based target vertex, ASCII digits")
        if enum:
            p.add_argument("--max-enum", metavar="N",
                           help="raise the vertex and instance caps of the enumeration "
                           f"guard (8 and 16) to N, at most {MAX_ENUM}; a cap above N is kept")
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
    text = Path(args.path).read_bytes().decode("utf-8")  # no newline translation
    graph = parse_graph(text)
    if args.mode == "float" and args.command not in _FLOAT_COMMANDS:
        raise GraphValidationError(
            f"float mode does not support '{args.command}'; exact results only"
        )
    return graph


def _number(value: str, flag: str, integer: bool = True):
    try:
        return _literal(value, integer)
    except ValueError as exc:
        raise GraphValidationError(f"{flag} {exc}") from None


def _lam(args) -> Fraction:
    return _number(args.lam, "--lambda", integer=False)


def _vertex(value: str | None, graph: AnyGraph, flag: str) -> int:
    if value is None:
        raise GraphValidationError(f"{flag} is required for this command")
    v = _number(value, flag)
    if not (1 <= v <= graph.n):
        raise GraphValidationError(f"{flag} {v} out of range 1..{graph.n}")
    return v - 1


def _guard(args) -> Guard:
    if getattr(args, "max_enum", None) is None:
        return DEFAULT_GUARD
    limit = _number(args.max_enum, "--max-enum")
    if limit < 1:
        raise GraphValidationError(f"--max-enum must be positive, got {limit}")
    if limit > MAX_ENUM:
        raise GuardExceededError(f"--max-enum {limit} is above the ceiling of {MAX_ENUM}")
    return Guard(max(limit, DEFAULT_GUARD.max_vertices), max(limit, DEFAULT_GUARD.max_instances))


def _backend(args):
    """The module that computes a float command: `forest`, or in float mode its
    binary64 mirror `floatops`, imported only then so exact mode never loads numpy."""
    if args.mode == "float":
        from . import floatops
        return floatops
    return forest


def _out(value):
    """A payload value: an exact scalar as a string, an exact matrix or polynomial as
    lists of them; a float value (numpy scalar or array) as floats, or OverflowError
    if any of them is infinite or NaN."""
    if isinstance(value, SquareMatrix):
        return [[str(x) for x in row] for row in value.entries]
    if isinstance(value, Polynomial):
        return [str(c) for c in value.coeffs]
    if isinstance(value, Fraction):
        return str(value)
    import numpy
    array = numpy.asarray(value, dtype=float)
    if not numpy.isfinite(array).all():
        raise OverflowError("float result is infinite or NaN")
    return array.tolist()


# -- command handlers --------------------------------------------------------


def _cmd_laplacian(args, graph: AnyGraph):
    return EXIT_OK, {"matrix": _out(_backend(args).graph_matrix(graph))}


def _cmd_forest_matrix(args, graph: AnyGraph):
    report = _backend(args).forest_matrix_report(graph, _lam(args))
    return EXIT_OK, {
        "lambda": _out(report.lam),
        "matrix": _out(report.matrix),
        "detW": _out(report.det),
    }


def _cmd_det(args, graph: AnyGraph):
    return EXIT_OK, {"detW": _out(_backend(args).forest_det(graph, _lam(args)))}


def _cmd_cofactor(args, graph: AnyGraph):
    lam = _lam(args)
    i = _vertex(args.from_vertex, graph, "--from")
    j = _vertex(args.to_vertex, graph, "--to")
    value = _backend(args).forest_cofactor(graph, i, j, lam)
    return EXIT_OK, {"i": i + 1, "j": j + 1, "cofactor": _out(value)}


def _cmd_accessibility(args, graph: AnyGraph):
    return EXIT_OK, {"matrix": _out(_backend(args).accessibility(graph, _lam(args)).matrix)}


def _cmd_charpoly(args, graph: AnyGraph):
    return EXIT_OK, {"coeffs": _out(_backend(args).charpoly_forest_coeffs(graph))}


def _cmd_cofactor_poly(args, graph: AnyGraph):
    i = _vertex(args.from_vertex, graph, "--from")
    j = _vertex(args.to_vertex, graph, "--to")
    poly = signed_cofactor_poly(graph, i, j) if args.signed else cofactor_poly(graph, i, j)
    return EXIT_OK, {
        "i": i + 1,
        "j": j + 1,
        "signed": bool(args.signed),
        "coeffs": _out(poly),
    }


def _cmd_enumerate(args, graph: AnyGraph):
    from .oracle import (
        enum_diverging_forests,
        enum_diverging_trees,
        enum_rooted_forests,
        enum_spanning_trees,
        filter_rooted,
        filter_roots,
        tree_roots,
        weight_of,
    )

    guard = _guard(args)
    directed = isinstance(graph, Multidigraph)
    kind = args.kind or ("diverging-forests" if directed else "rooted-forests")
    if kind == "rooted-forests" and directed:
        raise GraphValidationError("rooted-forests enumeration needs an undirected graph")
    if kind == "diverging-forests" and not directed:
        raise GraphValidationError("diverging-forests enumeration needs a directed graph")

    if kind == "trees":
        if args.roots is not None or args.to_vertex is not None:
            flag = "--roots" if args.roots is not None else "--to"
            raise GraphValidationError(f"{flag} only applies to forest kinds")
        if directed:
            root = _vertex(args.from_vertex, graph, "--from")
            found = [(t.arcs, [root + 1]) for t in enum_diverging_trees(graph, root, guard)]
        elif args.from_vertex is not None:
            raise GraphValidationError("--from only applies to forest kinds and directed trees")
        else:
            found = [(t, None) for t in enum_spanning_trees(graph, guard)]
    else:
        forests = enum_diverging_forests(graph, guard) if directed else enum_rooted_forests(graph, guard)
        if args.roots is not None:
            roots = frozenset(_vertex(v.strip(), graph, "--roots") for v in args.roots.split(","))
            forests = filter_roots(graph, forests, roots)
        if args.from_vertex is not None or args.to_vertex is not None:
            i = _vertex(args.from_vertex, graph, "--from")
            j = _vertex(args.to_vertex, graph, "--to")
            forests = filter_rooted(graph, forests, i, j)
        found = [
            (f.arcs if directed else f.edges, sorted({v + 1 for v in tree_roots(graph, f)}))
            for f in forests
        ]

    # the enumerations and filters already list members by size, instances, roots
    members = []
    total = Fraction(0)
    for instances, roots in found:
        weight = weight_of(instances, graph)
        total += weight
        member = {"instances": sorted(instances)}
        if roots is not None:
            member["roots"] = roots
        member["weight"] = str(weight)
        members.append(member)
    return EXIT_OK, {"kind": kind, "forests": members, "count": len(members), "total": str(total)}


def _cmd_verify(args, graph: AnyGraph):
    from .verify import run_all_checks

    checks = run_all_checks(graph, _guard(args))
    all_pass = all(c.passed for c in checks)
    report = {"all_pass": all_pass, "checks": [c._asdict() for c in checks]}
    return (EXIT_OK if all_pass else EXIT_CHECK_FAILED), {"report": report}


# -- TSV rendering -----------------------------------------------------------


def _tsv_lines(payload: dict):
    # a float payload holds floats only, printed as repr (the shortest exact
    # round trip); an exact one holds strings
    cell = repr if payload["mode"] == "float" else str
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
            yield "\t".join(map(cell, row))
        if "detW" in payload:
            yield f"detW\t{cell(payload['detW'])}"
    elif "coeffs" in payload:
        yield "\t".join(map(cell, payload["coeffs"]))
    elif "cofactor" in payload:
        yield cell(payload["cofactor"])
    elif "detW" in payload:
        yield cell(payload["detW"])


if __name__ == "__main__":
    entry()
