"""Brute-force enumeration of spanning trees, rooted forests and paths.

This module is the ground truth the matrix-side operations are tested
against, so it is deliberately naive: every edge/arc-instance subset a
forest can use is generated and filtered by the defining invariants. Forest
scans visit the sum over k < n of C(m, k) subsets of at most n - 1
instances, tree scans only the C(m, n - 1) subsets of the size a spanning
tree has. The diverging filter tests in-degree (no two arcs share a head)
before acyclicity, so a subset with a repeated head is rejected without a
union-find; the diverging-tree scan draws its subsets from the arcs that do
not enter the root, so a subset with an arc into the root is never built.
Roots come from one walk, `tree_roots`, for both forest kinds: for a digraph
"rooted at i" means "diverging from i", so one filter serves both. No
backtracking, no cleverness. Enumeration runs over instances, not merged
simple graphs, which keeps parallel-instance identities testable instead of
assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, product
from typing import Iterable, Sequence, Union

from .graphs import Multidigraph, Multigraph

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


@dataclass(frozen=True)
class Guard:
    """Size cap on exhaustive enumeration; subset scans stay <= 2**max_instances."""

    max_vertices: int = 8
    max_instances: int = 16


DEFAULT_GUARD = Guard()


class GuardExceededError(ValueError):
    """The graph is too large for exhaustive enumeration under the active guard."""


@dataclass(frozen=True)
class RootedForest:
    """Spanning acyclic edge-instance subset plus one chosen root per component."""

    edges: frozenset[int]
    roots: frozenset[int]


@dataclass(frozen=True)
class DivergingForest:
    """Arc-instance subset in which every vertex has in-degree <= 1 and no cycle exists.

    Roots are implicit: exactly the vertices of in-degree zero. Every
    component is then a tree with directed paths from its root to all its
    vertices.
    """

    arcs: frozenset[int]


@dataclass(frozen=True)
class Path:
    """Simple directed path as alternating distinct vertices and arc instances."""

    vertices: tuple[int, ...]
    arcs: tuple[int, ...]

    @property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertices)


class _DSU:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int) -> bool:
        """Merge the two classes; False when a and b were already joined."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def weight_of(instances: Iterable[int], host: Union[Multigraph, Multidigraph]) -> Fraction:
    """Product of the selected instances' weights; the empty product is 1."""
    items = host.instances
    num = den = 1
    for idx in instances:
        if not (0 <= idx < len(items)):
            raise IndexError(f"instance index {idx} out of range")
        w = items[idx].w
        num *= w.numerator
        den *= w.denominator
    return Fraction(num, den)


def set_weight(members: Iterable[Iterable[int]], host: Union[Multigraph, Multidigraph]) -> Fraction:
    """Total weight of a family of subgraphs: sum of member weights, empty family -> 0."""
    total = Fraction(0)
    for member in members:
        total += weight_of(member, host)
    return total


def _check_guard(graph, guard: Guard) -> None:
    m = len(graph.instances)
    if graph.n > guard.max_vertices or m > guard.max_instances:
        raise GuardExceededError(
            f"{graph.n} vertices / {m} instances exceed the enumeration guard "
            f"({guard.max_vertices} vertices / {guard.max_instances} instances)"
        )


def _forest_sized_subsets(m: int, n: int):
    """Every subset of at most n - 1 instances (the empty one alone for n = 0)."""
    return chain.from_iterable(combinations(range(m), k) for k in range(min(m, max(n - 1, 0)) + 1))


def _is_forest_subset(graph: Multigraph, idxs: Sequence[int]) -> _DSU | None:
    """DSU of the subset when acyclic (parallel instances count as cycles), else None."""
    dsu = _DSU(graph.n)
    for i in idxs:
        e = graph.edges[i]
        if not dsu.union(e.u, e.v):
            return None
    return dsu


def _is_diverging_subset(digraph: Multidigraph, idxs: Sequence[int]) -> bool:
    arcs = digraph.arcs
    if len({arcs[i].head for i in idxs}) < len(idxs):
        return False  # a repeated head: some vertex has in-degree above 1
    dsu = _DSU(digraph.n)
    return all(dsu.union(arcs[i].tail, arcs[i].head) for i in idxs)


def enum_rooted_forests(graph: Multigraph, guard: Guard = DEFAULT_GUARD) -> tuple[RootedForest, ...]:
    """All spanning rooted forests: every acyclic edge-instance subset paired with
    every choice of one root per connected component."""
    _check_guard(graph, guard)
    out = []
    for idxs in _forest_sized_subsets(len(graph.edges), graph.n):
        dsu = _is_forest_subset(graph, idxs)
        if dsu is None:
            continue
        comps: dict[int, list[int]] = {}
        for v in range(graph.n):
            comps.setdefault(dsu.find(v), []).append(v)
        edge_set = frozenset(idxs)
        for choice in product(*comps.values()):
            out.append(RootedForest(edge_set, frozenset(choice)))
    return tuple(sorted(out, key=_rooted_key))


def enum_diverging_forests(digraph: Multidigraph, guard: Guard = DEFAULT_GUARD) -> tuple[DivergingForest, ...]:
    """All spanning diverging forests (arc subsets with in-degree <= 1 and no cycle)."""
    _check_guard(digraph, guard)
    out = [
        DivergingForest(frozenset(idxs))
        for idxs in _forest_sized_subsets(len(digraph.arcs), digraph.n)
        if _is_diverging_subset(digraph, idxs)
    ]
    return tuple(sorted(out, key=_diverging_key))


def enum_spanning_trees(graph: Multigraph, guard: Guard = DEFAULT_GUARD) -> tuple[frozenset[int], ...]:
    """All spanning trees as edge-instance subsets (acyclic with n-1 instances)."""
    _check_guard(graph, guard)
    if graph.n == 0:
        return ()
    out = [
        frozenset(idxs)
        for idxs in combinations(range(len(graph.edges)), graph.n - 1)
        if _is_forest_subset(graph, idxs) is not None
    ]
    return tuple(sorted(out, key=lambda s: tuple(sorted(s))))


def enum_diverging_trees(
    digraph: Multidigraph, root: int, guard: Guard = DEFAULT_GUARD
) -> tuple[DivergingForest, ...]:
    """All spanning trees diverging from `root` (single-component diverging forests).

    A diverging subset of n - 1 arcs is one spanning tree whose root is the
    only vertex no arc enters, so the subsets are drawn from the arcs that do
    not enter `root`.
    """
    if not (0 <= root < digraph.n):
        raise IndexError(f"root {root} out of range for n={digraph.n}")
    _check_guard(digraph, guard)
    candidates = [idx for idx, a in enumerate(digraph.arcs) if a.head != root]
    out = [
        DivergingForest(frozenset(idxs))
        for idxs in combinations(candidates, digraph.n - 1)
        if _is_diverging_subset(digraph, idxs)
    ]
    return tuple(sorted(out, key=_diverging_key))


def tree_roots(
    host: Union[Multigraph, Multidigraph], forest: Union[RootedForest, DivergingForest]
) -> tuple[int, ...]:
    """Entry v is the root of the tree containing vertex v.

    A diverging forest's root is found by following the unique in-arcs
    upward; a rooted forest's is the chosen root in v's component.
    """
    if isinstance(host, Multidigraph):
        parent = {host.arcs[i].head: host.arcs[i].tail for i in forest.arcs}
        out = []
        for v in range(host.n):
            while v in parent:
                v = parent[v]
            out.append(v)
        return tuple(out)
    dsu = _DSU(host.n)
    for e in forest.edges:
        dsu.union(host.edges[e].u, host.edges[e].v)
    root_of = {dsu.find(r): r for r in forest.roots}
    return tuple(root_of[dsu.find(v)] for v in range(host.n))


def _check_vertices(host, vertices: Iterable[int]) -> None:
    for v in vertices:
        if not (0 <= v < host.n):
            raise IndexError(f"vertex {v} out of range for n={host.n}")


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
    for v in (start, goal):
        if not (0 <= v < digraph.n):
            raise IndexError(f"vertex {v} out of range for n={digraph.n}")
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
    verts = [start]
    arcs: list[int] = []
    visited = {start}

    def walk(v: int) -> None:
        for idx, head in adjacency.get(v, ()):
            if head in visited:
                continue
            verts.append(head)
            arcs.append(idx)
            if head == goal:
                out.append(Path(tuple(verts), tuple(arcs)))
            else:
                visited.add(head)
                walk(head)
                visited.discard(head)
            verts.pop()
            arcs.pop()

    walk(start)
    return tuple(sorted(out, key=lambda p: (len(p.arcs), p.arcs)))


def _rooted_key(f: RootedForest):
    return (len(f.edges), tuple(sorted(f.edges)), tuple(sorted(f.roots)))


def _diverging_key(f: DivergingForest):
    return (len(f.arcs), tuple(sorted(f.arcs)))
