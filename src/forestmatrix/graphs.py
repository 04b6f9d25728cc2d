"""Weighted multigraph and multidigraph model plus structural transforms.

Vertices are 0-based internally (the file format and CLI are 1-based; the
conversion happens only at that boundary). Parallel edge/arc instances are
first-class: they are kept distinct everywhere and only collapsed by an
explicit merge_parallel call. Weights are exact rationals and may be negative
or zero; zero-weight instances are legal and retained. Every graph matrix is
built from one arc list, so a Laplacian is the Kirchhoff matrix of the
bidirected twin (to_bidirected), in exact and in float mode.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import index
from typing import Iterable, NamedTuple, Union

from .linalg import SquareMatrix, _in_range, _is_bool, _Value, as_rational

__all__ = [
    "GraphValidationError",
    "Guard",
    "DEFAULT_GUARD",
    "GuardExceededError",
    "Edge",
    "Arc",
    "Multigraph",
    "Multidigraph",
    "AnyGraph",
    "laplacian",
    "kirchhoff",
    "merge_parallel",
    "contract",
    "to_bidirected",
]


class GraphValidationError(ValueError):
    """Structurally invalid graph: self-loop or vertex out of range."""


class Guard(NamedTuple):
    """Size cap on exhaustive enumeration: at most prod(indeg + 1) <= 2**arcs parent
    choices, where an undirected graph is walked as its twin of 2 arcs per edge."""

    max_vertices: int = 8
    max_instances: int = 16


DEFAULT_GUARD = Guard()


class GuardExceededError(ValueError):
    """The graph is too large for exhaustive enumeration under the active guard."""


class Edge(NamedTuple):
    u: int
    v: int
    w: Fraction


class Arc(NamedTuple):
    tail: int
    head: int
    w: Fraction


def _integer(value) -> int | None:
    """value as an int through operator.index, numpy integers included; None for
    a non-integer or a bool (an int subclass, and numpy's), which as a vertex
    count or id is always a mistake."""
    if _is_bool(value) or not hasattr(type(value), "__index__"):
        return None
    return index(value)


def _vertex_count(n) -> int:
    count = _integer(n)
    if count is None:
        raise GraphValidationError(f"vertex count must be an integer, got {n!r}")
    if count < 0:
        raise GraphValidationError(f"vertex count must be >= 0, got {count}")
    return count


def _checked(kind: str, a: int, b: int, w, n: int):
    if type(a) is not int or type(b) is not int:  # plain ints, as parsed, skip the conversion
        ia, ib = _integer(a), _integer(b)
        if ia is None or ib is None:
            raise GraphValidationError(f"{kind} endpoints must be integers, got ({a!r}, {b!r})")
        a, b = ia, ib
    if not (0 <= a < n and 0 <= b < n):
        raise GraphValidationError(f"{kind} ({a}, {b}) out of range for n={n}")
    if a == b:
        raise GraphValidationError(f"self-loop at vertex {a} is not allowed")
    return a, b, as_rational(w)


class Multigraph(_Value):
    """Undirected weighted multigraph on vertices 0..n-1."""

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges: tuple[Edge, ...] = ()) -> None:
        n = _vertex_count(n)
        object.__setattr__(self, "n", n)
        object.__setattr__(
            self, "edges", tuple(Edge(*_checked("edge", e[0], e[1], e[2], n)) for e in edges)
        )

    @property
    def instances(self) -> tuple[Edge, ...]:
        return self.edges


class Multidigraph(_Value):
    """Directed weighted multidigraph on vertices 0..n-1."""

    __slots__ = ("n", "arcs")

    def __init__(self, n: int, arcs: tuple[Arc, ...] = ()) -> None:
        n = _vertex_count(n)
        object.__setattr__(self, "n", n)
        object.__setattr__(
            self, "arcs", tuple(Arc(*_checked("arc", a[0], a[1], a[2], n)) for a in arcs)
        )

    @property
    def instances(self) -> tuple[Arc, ...]:
        return self.arcs


AnyGraph = Union[Multigraph, Multidigraph]


def _require(graph, kind: type) -> None:
    if not isinstance(graph, kind):
        raise TypeError(f"expected a {kind.__name__}, got {type(graph).__name__}")


def _arcs(graph: AnyGraph):
    """Arcs (tail, head, w) of the bidirected twin: a digraph's own; for a graph,
    each edge (u, v, w) as (u, v, w) and then (v, u, w), in edge order."""
    if isinstance(graph, Multidigraph):
        return graph.arcs
    return [a for e in graph.edges for a in (e, (e[1], e[0], e[2]))]


def laplacian(graph: Multigraph) -> SquareMatrix:
    """Weighted Laplacian: entry (i, j), j != i, is minus the total weight of
    the edges between i and j; the diagonal makes every row sum to zero."""
    _require(graph, Multigraph)
    return _graph_matrix(graph)


def kirchhoff(digraph: Multidigraph) -> SquareMatrix:
    """Directed Kirchhoff matrix: entry (i, j), j != i, is minus the total
    weight of the arcs j->i; diagonal (i, i) is the total weight converging
    to i. Rows sum to zero; columns need not."""
    _require(digraph, Multidigraph)
    return _graph_matrix(digraph)


def _scaled_rows(graph: AnyGraph, lam=0) -> tuple[list[list[int]], list[int]]:
    """The integer rows of W = lam*I + L and their multipliers: row r of W is
    rows[r] / mults[r], in lowest terms as a whole (the gcd of mults[r] and
    rows[r] is 1). These are exactly the rows and multipliers that
    linalg._integer_rows makes from W's Fractions.

    Each row is summed as integers over the lcm of the denominators of lam and
    of the weights into that vertex, in one pass over the arc list. Its gcd is
    taken over the columns the arc list fills, the diagonal and the tails of
    the arcs into that vertex, not over all n entries; each row is still
    allocated as n zeros.
    """
    lam = as_rational(lam)
    n = graph.n
    arcs = _arcs(graph)
    mults = [lam.denominator] * n
    for _, head, w in arcs:
        mults[head] = lcm(mults[head], w.denominator)
    rows = [[0] * n for _ in range(n)]
    filled = [[r] for r in range(n)]
    for tail, head, w in arcs:
        num, den = w.as_integer_ratio()
        x = num * (mults[head] // den)
        rows[head][tail] -= x
        rows[head][head] += x
        filled[head].append(tail)
    for r, (row, mult) in enumerate(zip(rows, mults)):
        row[r] += lam.numerator * (mult // lam.denominator)
        g = gcd(mult, *map(row.__getitem__, filled[r]))
        if g > 1:
            rows[r] = [x // g for x in row]
            mults[r] = mult // g
    return rows, mults


def _graph_matrix(graph: AnyGraph) -> SquareMatrix:
    # Summing each row as integers makes one Fraction per nonzero entry
    # instead of one per weight added.
    rows, mults = _scaled_rows(graph)
    zero = Fraction(0)
    return SquareMatrix(
        tuple(tuple(Fraction(x, d) if x else zero for x in row) for row, d in zip(rows, mults))
    )


def merge_parallel(graph: AnyGraph) -> AnyGraph:
    """Collapse parallel instances into one instance per (ordered or unordered)
    vertex pair, weights summed; zero-sum pairs keep a zero-weight instance.

    Idempotent; output instances are sorted by endpoint pair for determinism.
    """
    directed = isinstance(graph, Multidigraph)
    sums: dict[tuple[int, int], Fraction] = {}
    for u, v, w in graph.instances:
        key = (u, v) if directed or u < v else (v, u)
        sums[key] = sums.get(key, Fraction(0)) + w
    return type(graph)(graph.n, tuple((u, v, w) for (u, v), w in sorted(sums.items())))


def contract(digraph: Multidigraph, vertices: Iterable[int]) -> tuple[Multidigraph, int]:
    """Identify all of `vertices` into a single vertex; return (graph, its index).

    Arcs with both endpoints inside the merged set would become self-loops and
    are dropped; arcs created parallel by the identification are kept as
    separate instances. Relabeling is deterministic: survivors keep their
    relative order and the merged vertex takes the smallest merged label's
    position, so deleting its row/column from the result's Kirchhoff matrix
    reproduces the minor of the original with all merged rows/columns deleted.
    Each vertex given is checked; the relabelled arcs of the validated digraph are not.
    """
    _require(digraph, Multidigraph)
    vertices = tuple(vertices)
    for v in vertices:
        if not _in_range(v, digraph.n):
            raise GraphValidationError(f"vertex {v} out of range for n={digraph.n}")
    if not vertices:
        raise GraphValidationError("cannot contract an empty vertex set")
    merged = set(vertices)
    anchor = min(merged)
    old_order = [v for v in range(digraph.n) if v == anchor or v not in merged]
    relabel = {old: new for new, old in enumerate(old_order)}
    label = [relabel[anchor if v in merged else v] for v in range(digraph.n)]
    arcs = tuple(Arc(label[t], label[h], w) for t, h, w in digraph.arcs if label[t] != label[h])
    return Multidigraph._of(digraph.n - len(merged) + 1, arcs), relabel[anchor]


def to_bidirected(graph: Multigraph) -> Multidigraph:
    """Replace each edge instance by the two opposite arcs of the same weight.

    Edge e = (u, v, w) becomes arc 2e = (u, v, w) and arc 2e + 1 = (v, u, w),
    so arc >> 1 is the arc's edge. The result has the same Kirchhoff matrix as
    the graph's Laplacian, and its diverging forests correspond one-to-one to
    the graph's rooted forests.
    """
    _require(graph, Multigraph)
    return Multidigraph(graph.n, tuple(_arcs(graph)))
