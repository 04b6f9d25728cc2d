"""Plain-text graph files.

Grammar (UTF-8, LF or CRLF):

    graph <directed|undirected> <n>
    <u> <v> <w>
    ...

`n`, `u` and `v` are integers, `u` and `v` 1-based vertex labels; `w` is an
integer, an exact decimal with optional exponent (0.25 is exactly 1/4) or `p/q`
with q > 0. Each may be signed; digits are ASCII, with no `_` and at most 4300
in a run (`linalg`'s literal grammar, which CLI flags share). Lines end at LF
or CRLF only, never at a form feed or a Unicode line separator. `#` starts a
comment to end of line; blank lines are ignored. Duplicate (u, v) lines are
parallel instances, preserved in file order.
"""

from __future__ import annotations

from .graphs import AnyGraph, GraphValidationError, Multidigraph, Multigraph
from .linalg import _literal

__all__ = ["GraphParseError", "parse_graph"]


class GraphParseError(ValueError):
    """Malformed graph file; carries the 1-based offending line number."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _significant_lines(text: str):
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line_no, line


def _number(token: str, what: str, line_no: int, integer: bool = True):
    try:
        return _literal(token, integer)
    except ValueError as exc:
        raise GraphParseError(line_no, f"{what} {exc}") from None


# Plain ASCII digits are in the grammar as they stand, and int() reads them
# under any int/str digit limit while they are shorter than the least one (640).
_PLAIN_DIGITS = 639


def _parse_vertex(token: str, n: int, line_no: int) -> int:
    if len(token) <= _PLAIN_DIGITS and token.isascii() and token.isdigit():
        v = int(token)
    else:
        v = _number(token, "vertex label", line_no)
    if not (1 <= v <= n):
        raise GraphValidationError(f"line {line_no}: vertex {v} out of range 1..{n}")
    return v - 1


def parse_graph(text: str) -> AnyGraph:
    """Parse a graph file into a Multigraph or Multidigraph (0-based internally)."""
    lines = _significant_lines(text)
    try:
        header_no, header = next(lines)
    except StopIteration:
        raise GraphParseError(1, "missing 'graph <directed|undirected> <n>' header") from None
    tokens = header.split()
    if len(tokens) != 3 or tokens[0] != "graph" or tokens[1] not in ("directed", "undirected"):
        raise GraphParseError(header_no, f"bad header {header!r}")
    n = _number(tokens[2], "vertex count", header_no)
    if n < 0:
        raise GraphValidationError(f"line {header_no}: vertex count must be >= 0, got {n}")

    directed = tokens[1] == "directed"
    instances = []
    weights = {}  # token -> its Fraction: a file repeats few distinct weights
    for line_no, line in lines:
        parts = line.split()
        if len(parts) != 3:
            raise GraphParseError(line_no, f"expected '<u> <v> <w>', got {line!r}")
        u = _parse_vertex(parts[0], n, line_no)
        v = _parse_vertex(parts[1], n, line_no)
        if u == v:
            raise GraphValidationError(f"line {line_no}: self-loop at vertex {u + 1}")
        token = parts[2]
        w = weights.get(token)
        if w is None:
            w = weights[token] = _number(token, "weight", line_no, integer=False)
        instances.append((u, v, w))
    if directed:
        return Multidigraph(n, tuple(instances))
    return Multigraph(n, tuple(instances))
