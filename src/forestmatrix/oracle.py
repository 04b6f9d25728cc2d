"""Brute-force enumeration of spanning trees, rooted forests and paths.

This module is the ground truth the matrix-side operations are tested
against, so it is deliberately naive and uses no matrix. A diverging forest
is one choice per vertex of an entering arc or none, with no cycle, and one
walk lists them: vertices choose in index order, and an arc is dropped when
the parents chosen so far lead from its tail back to the choosing vertex.
That is at most the product over v of (indeg v + 1) candidates, never more
than 2**arcs; a tree diverging from r gives r no arc and every other vertex
one, at most the product over v != r of indeg v. An undirected rooted forest
is a diverging forest of the bidirected twin (Chaiken 1982), its roots the
vertices that chose none, and a spanning tree is a twin tree from vertex 0.
Every enumeration projects that walk, which also reports each vertex's root,
read up the parents it chose, and each forest's weight as an integer over
D**(n - 1), D the lcm of the weights' denominators. For a digraph "rooted at
i" means "diverging from i", so one root map serves both forest kinds.
Enumeration runs over instances, not merged simple graphs, which keeps
parallel-instance identities testable instead of assumed.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, NamedTuple, Union

# The guard lives in graphs, so a process that only checks it need not load this
# module; it is exported from here too.
from .graphs import (
    DEFAULT_GUARD,
    Guard,
    GuardExceededError,
    Multidigraph,
    Multigraph,
    _arcs,
    _require,
)
from .linalg import _in_range

__all__ = [
    "Guard",
    "DEFAULT_GUARD",
    "GuardExceededError",
    "RootedForest",
    "DivergingForest",
    "Path",
    "weight_of",
    "set_weight",
    "enum_rooted_forests",
    "enum_diverging_forests",
    "enum_spanning_trees",
    "enum_diverging_trees",
    "enum_paths",
    "filter_rooted",
    "filter_roots",
    "tree_roots",
]


class RootedForest(NamedTuple):
    """Spanning acyclic edge-instance subset plus one chosen root per component."""

    edges: frozenset[int]
    roots: frozenset[int]


class DivergingForest(NamedTuple):
    """Arc-instance subset in which every vertex has in-degree <= 1 and no cycle exists.

    Roots are implicit: exactly the vertices of in-degree zero. Every
    component is then a tree with directed paths from its root to all its
    vertices.
    """

    arcs: frozenset[int]


class Path(NamedTuple):
    """Simple directed path as alternating distinct vertices and arc instances."""

    vertices: tuple[int, ...]
    arcs: tuple[int, ...]

    @property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertices)


def weight_of(instances: Iterable[int], host: Union[Multigraph, Multidigraph]) -> Fraction:
    """Product of the selected instances' weights; the empty product is 1."""
    instances = tuple(instances)
    _check_instances(host, instances)
    num = den = 1
    for idx in instances:
        w = host.instances[idx].w
        num *= w.numerator
        den *= w.denominator
    return Fraction(num, den)


def set_weight(members: Iterable[Iterable[int]], host: Union[Multigraph, Multidigraph]) -> Fraction:
    """Total weight of a family of subgraphs: sum of member weights, empty family -> 0."""
    return sum((weight_of(member, host) for member in members), Fraction(0))


def _check_guard(graph, guard: Guard) -> None:
    m = len(graph.instances)
    if graph.n > guard.max_vertices or m > guard.max_instances:
        raise GuardExceededError(
            f"{graph.n} vertices / {m} instances exceed the enumeration guard "
            f"({guard.max_vertices} vertices / {guard.max_instances} instances)"
        )


def _choices(graph: Union[Multigraph, Multidigraph], root: int | None = None) -> list:
    """Every diverging forest of a digraph or of a graph's bidirected twin, or
    with `root` every spanning tree diverging from it, as (chosen, root_of,
    weight): chosen[v] the twin arc entering v, None for a root; root_of[v] the
    root of v's tree, read up the chosen parents; weight the product of the
    arcs' weights times D**(n - 1), D the lcm of all their denominators.

    Vertices choose in index order: an arc multiplies the weight by its own
    times D, none by D, and an arc is dropped when the walk up the chosen
    parents from its tail reaches the chooser. A forest has a root: one D goes."""
    n = graph.n
    arcs = _arcs(graph)
    base = lcm(*(w.denominator for _, _, w in arcs))
    options = [[(None, -1, base)] if root is None or v == root else [] for v in range(n)]
    for idx, (tail, head, w) in enumerate(arcs):
        if head != root:
            options[head].append((idx, tail, w.numerator * (base // w.denominator)))
    chosen = [None] * n
    up = [-1] * n  # tail of each vertex's chosen arc; -1 for roots and vertices yet to choose
    out = []

    def top(u):
        while up[u] >= 0:
            u = up[u]
        return u

    def walk(v, weight):
        if v == n:
            out.append((tuple(chosen), (root,) * n if root is not None else tuple(map(top, range(n))), weight // base))
            return
        for idx, tail, x in options[v]:
            t = tail
            while t >= 0 and t != v:
                t = up[t]
            if t == v:
                continue
            up[v] = tail
            chosen[v] = idx
            walk(v + 1, weight * x)
        up[v] = -1

    walk(0, 1)
    return out


def enum_rooted_forests(graph: Multigraph, guard: Guard = DEFAULT_GUARD) -> tuple[RootedForest, ...]:
    """All spanning rooted forests: the diverging forests of the bidirected twin,
    edge e being twin arcs 2e and 2e + 1 and the roots the vertices no arc enters."""
    _require(graph, Multigraph)
    _check_guard(graph, guard)
    out = [RootedForest(frozenset(i >> 1 for i in c if i is not None), frozenset(r)) for c, r, _ in _choices(graph)]
    return tuple(sorted(out, key=_rooted_key))


def enum_diverging_forests(digraph: Multidigraph, guard: Guard = DEFAULT_GUARD) -> tuple[DivergingForest, ...]:
    """All spanning diverging forests (arc subsets with in-degree <= 1 and no cycle)."""
    _require(digraph, Multidigraph)
    _check_guard(digraph, guard)
    out = [DivergingForest(frozenset(idx for idx in c if idx is not None)) for c, _, _ in _choices(digraph)]
    return tuple(sorted(out, key=_diverging_key))


def enum_spanning_trees(graph: Multigraph, guard: Guard = DEFAULT_GUARD) -> tuple[frozenset[int], ...]:
    """All spanning trees as edge-instance subsets: the bidirected twin's trees
    diverging from vertex 0, each arc mapped back to its edge."""
    _require(graph, Multigraph)
    _check_guard(graph, guard)
    if graph.n == 0:
        return ()
    out = [frozenset(idx >> 1 for idx in c if idx is not None) for c, _, _ in _choices(graph, 0)]
    return tuple(sorted(out, key=lambda s: tuple(sorted(s))))


def enum_diverging_trees(
    digraph: Multidigraph, root: int, guard: Guard = DEFAULT_GUARD
) -> tuple[DivergingForest, ...]:
    """All spanning trees diverging from `root` (single-component diverging forests)."""
    _require(digraph, Multidigraph)
    if not _in_range(root, digraph.n):
        raise IndexError(f"root {root} out of range for n={digraph.n}")
    _check_guard(digraph, guard)
    out = [DivergingForest(frozenset(idx for idx in c if idx is not None)) for c, _, _ in _choices(digraph, root)]
    return tuple(sorted(out, key=_diverging_key))


def tree_roots(
    host: Union[Multigraph, Multidigraph], forest: Union[RootedForest, DivergingForest]
) -> tuple[int, ...]:
    """Entry v is the root of the tree containing vertex v.

    A diverging forest's root is found by following the unique in-arcs
    upward; a rooted forest's by a walk out from each chosen root. Raises
    TypeError on a forest of the other kind, IndexError on an instance index
    or root out of range, and ValueError on a malformed forest: two arcs into
    one vertex, or, naming a vertex, a cycle, a tree with two roots or none.
    """
    _require(forest, DivergingForest if isinstance(host, Multidigraph) else RootedForest)
    n = host.n
    if isinstance(host, Multidigraph):
        _check_instances(host, forest.arcs)
        parent = {host.arcs[i].head: host.arcs[i].tail for i in forest.arcs}
        if len(parent) < len(forest.arcs):
            raise ValueError("two arcs of the forest enter one vertex")
        out = []
        for v in range(n):
            u, steps = v, 0
            while u in parent:
                u = parent[u]
                steps += 1
                if steps == n:  # a root is at most n - 1 arcs up
                    raise ValueError(f"vertex {v} is on a cycle of the forest or below one")
            out.append(u)
        return tuple(out)
    _check_instances(host, forest.edges)
    _check_vertices(host, forest.roots)
    neighbours: list[list[int]] = [[] for _ in range(n)]
    for e in forest.edges:
        u, v, _ = host.edges[e]
        neighbours[u].append(v)
        neighbours[v].append(u)
    root_of: list[int | None] = [None] * n
    for r in sorted(forest.roots):
        if root_of[r] is not None:
            raise ValueError(f"vertex {r} is a second root in the tree of root {root_of[r]}")
        root_of[r] = r
        stack = [r]
        while stack:
            for w in neighbours[stack.pop()]:
                if root_of[w] is None:
                    root_of[w] = r
                    stack.append(w)
    if None in root_of:
        raise ValueError(f"vertex {root_of.index(None)} is in a tree without a root")
    return tuple(root_of)


def _check_vertices(host, vertices: Iterable[int]) -> None:
    for v in vertices:
        if not _in_range(v, host.n):
            raise IndexError(f"vertex {v} out of range for n={host.n}")


def _check_instances(host, instances: Iterable[int]) -> None:
    for idx in instances:
        if not _in_range(idx, len(host.instances)):
            raise IndexError(f"instance index {idx} out of range")


def filter_rooted(
    host: Union[Multigraph, Multidigraph],
    forests: Iterable[Union[RootedForest, DivergingForest]],
    i: int,
    j: int,
) -> tuple:
    """Members in which j's tree is rooted at i, for a digraph: diverges from i
    (i == j selects the members in which i is a root)."""
    _check_vertices(host, (i, j))
    return tuple(f for f in forests if tree_roots(host, f)[j] == i)


def filter_roots(
    host: Union[Multigraph, Multidigraph],
    forests: Iterable[Union[RootedForest, DivergingForest]],
    roots: Iterable[int],
) -> tuple:
    """Members whose root set is exactly `roots`; an empty target selects nothing."""
    target = frozenset(roots)
    _check_vertices(host, target)
    if not target:
        return ()
    return tuple(f for f in forests if frozenset(tree_roots(host, f)) == target)


def enum_paths(
    digraph: Multidigraph, start: int, goal: int, guard: Guard = DEFAULT_GUARD
) -> tuple[Path, ...]:
    """All simple directed paths start -> goal over arc instances.

    start == goal yields the single zero-length path (weight 1, vertex set
    {start}). Only the vertex guard applies here: the search is bounded by
    simple-path length, not by the 2**instances subset scan the instance cap
    protects against.
    """
    _require(digraph, Multidigraph)
    _check_vertices(digraph, (start, goal))
    if digraph.n > guard.max_vertices:
        raise GuardExceededError(
            f"{digraph.n} vertices exceed the path-enumeration guard ({guard.max_vertices})"
        )
    if start == goal:
        return (Path((start,), ()),)
    adjacency: dict[int, list[tuple[int, int]]] = {}
    for idx, a in enumerate(digraph.arcs):
        adjacency.setdefault(a.tail, []).append((idx, a.head))
    out: list[Path] = []

    def walk(verts: tuple[int, ...], arcs: tuple[int, ...]) -> None:
        for idx, head in adjacency.get(verts[-1], ()):
            if head == goal:
                out.append(Path(verts + (head,), arcs + (idx,)))
            elif head not in verts:
                walk(verts + (head,), arcs + (idx,))

    walk((start,), ())
    return tuple(sorted(out, key=lambda p: (len(p.arcs), p.arcs)))


def _path_sum(companion: Multidigraph, paths: Iterable[Path], minor) -> Fraction:
    """Sum over `paths` of the path weight in `companion` times
    minor(path vertices); a path whose minor is 0 is not weighed.

    For the (i, j) cofactor of a matrix M, `paths` are the simple i -> j paths
    of M's companion digraph, which the caller enumerates (enum_paths), and
    minor(vs) is det(M with the rows and columns vs deleted). The companion
    digraph of a principal submatrix of M is M's restricted to the kept
    vertices, so `paths` may also be M's, with minor(vs) = 0 for each path
    through a deleted vertex.
    """
    total = Fraction(0)
    for p in paths:
        m = minor(p.vertices)
        if m:
            total += weight_of(p.arcs, companion) * m
    return total


def _rooted_key(f: RootedForest):
    return (len(f.edges), tuple(sorted(f.edges)), tuple(sorted(f.roots)))


def _diverging_key(f: DivergingForest):
    return (len(f.arcs), tuple(sorted(f.arcs)))
