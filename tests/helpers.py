"""Shared test utilities: random graph generators and independent oracles.

The checkers and determinants here deliberately avoid the package's own
algorithms (no union-find subset filtering, no Bareiss) so that agreement
between the two sides actually means something. The one exception is
minor_adjugate, which takes each minor by the package's forward determinant
to check the adjugate's Gauss-Jordan and interpolation route.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from random import Random

from forestmatrix import (
    DivergingForest,
    Multidigraph,
    Multigraph,
    RootedForest,
    SquareMatrix,
    weight_of,
)

WEIGHT_POOL = tuple(
    Fraction(x) for x in ("1", "-1", "2", "-2", "1/2", "-1/2", "3/2", "-3/2", "1/3", "-1/3")
)

POSITIVE_POOL = tuple(Fraction(x) for x in ("1", "2", "3", "1/2", "3/2", "1/3"))


def random_multigraph(rng: Random, n_min=2, n_max=6, max_edges=10, pool=WEIGHT_POOL) -> Multigraph:
    n = rng.randint(n_min, n_max)
    edges = []
    for _ in range(rng.randint(0, max_edges)):
        u = rng.randrange(n)
        v = rng.randrange(n - 1)
        if v >= u:
            v += 1
        edges.append((u, v, rng.choice(pool)))
    return Multigraph(n, tuple(edges))


def random_multidigraph(rng: Random, n_min=2, n_max=5, max_arcs=10, pool=WEIGHT_POOL) -> Multidigraph:
    n = rng.randint(n_min, n_max)
    arcs = []
    for _ in range(rng.randint(0, max_arcs)):
        t = rng.randrange(n)
        h = rng.randrange(n - 1)
        if h >= t:
            h += 1
        arcs.append((t, h, rng.choice(pool)))
    return Multidigraph(n, tuple(arcs))


def fraction_graph_matrix(graph) -> SquareMatrix:
    """Laplacian (undirected) or Kirchhoff (directed) matrix, one Fraction added per weight."""
    n = graph.n
    m = [[Fraction(0)] * n for _ in range(n)]
    if isinstance(graph, Multidigraph):
        for tail, head, w in graph.arcs:
            m[head][tail] -= w
            m[head][head] += w
    else:
        for u, v, w in graph.edges:
            m[u][v] -= w
            m[v][u] -= w
            m[u][u] += w
            m[v][v] += w
    return SquareMatrix(tuple(map(tuple, m)))


def minor_adjugate(matrix: SquareMatrix) -> SquareMatrix:
    """Adjugate entry by entry: adj[i][j] is the signed minor of (j, i), each minor
    a separate forward determinant (no Gauss-Jordan, no interpolation)."""
    n = matrix.n
    rows = matrix.entries

    def cofactor(i, j):
        minor = tuple(row[:j] + row[j + 1:] for r, row in enumerate(rows) if r != i)
        return (-1) ** (i + j) * SquareMatrix(minor).det()

    return SquareMatrix(tuple(tuple(cofactor(j, i) for j in range(n)) for i in range(n)))


def fraction_horner(coeffs, x: Fraction) -> Fraction:
    """Polynomial value (constant term first) by Horner's rule on Fractions."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def leibniz_det(matrix: SquareMatrix) -> Fraction:
    """Determinant by signed permutation expansion (usable up to n ~ 6)."""
    n = matrix.n
    total = Fraction(0)
    for perm in permutations(range(n)):
        sign = 1
        for a, b in combinations(range(n), 2):
            if perm[a] > perm[b]:
                sign = -sign
        term = Fraction(sign)
        for row, col in enumerate(perm):
            term *= matrix.entries[row][col]
        total += term
    return total


def check_rooted_forest(graph: Multigraph, forest: RootedForest) -> bool:
    """Validate spanning / acyclic / one-root-per-component by root-first BFS."""
    adjacency: dict[int, list[tuple[int, int]]] = {v: [] for v in range(graph.n)}
    for idx in forest.edges:
        e = graph.edges[idx]
        adjacency[e.u].append((idx, e.v))
        adjacency[e.v].append((idx, e.u))
    visited: set[int] = set()
    used_edges: set[int] = set()
    for root in forest.roots:
        if root in visited:
            return False  # two roots in one component
        visited.add(root)
        queue = [root]
        while queue:
            v = queue.pop()
            for idx, other in adjacency[v]:
                if idx in used_edges:
                    continue
                if other in visited:
                    return False  # a cycle, or a bridge into another root's tree
                used_edges.add(idx)
                visited.add(other)
                queue.append(other)
    return visited == set(range(graph.n)) and used_edges == set(forest.edges)


def check_diverging_forest(digraph: Multidigraph, forest: DivergingForest) -> bool:
    """Validate in-degree, acyclicity and spanning by BFS from in-degree-0 vertices."""
    out_arcs: dict[int, list[tuple[int, int]]] = {v: [] for v in range(digraph.n)}
    indegree = {v: 0 for v in range(digraph.n)}
    for idx in forest.arcs:
        a = digraph.arcs[idx]
        out_arcs[a.tail].append((idx, a.head))
        indegree[a.head] += 1
    if any(d > 1 for d in indegree.values()):
        return False
    visited: set[int] = set()
    used: set[int] = set()
    for root in (v for v in range(digraph.n) if indegree[v] == 0):
        visited.add(root)
        queue = [root]
        while queue:
            v = queue.pop()
            for idx, head in out_arcs[v]:
                if head in visited:
                    return False
                used.add(idx)
                visited.add(head)
                queue.append(head)
    return visited == set(range(digraph.n)) and used == set(forest.arcs)


def instances_of(forest) -> frozenset[int]:
    return forest.arcs if isinstance(forest, DivergingForest) else forest.edges


def root_of_map(graph, forest) -> list[int]:
    """root_of[v]: the root of the tree containing v, for either forest kind."""
    n = graph.n
    if isinstance(forest, DivergingForest):
        parent = {graph.arcs[i].head: graph.arcs[i].tail for i in forest.arcs}
        out = []
        for v in range(n):
            w = v
            while w in parent:
                w = parent[w]
            out.append(w)
        return out
    # undirected: BFS component labels, then map each component to its root
    adjacency: dict[int, list[int]] = {v: [] for v in range(n)}
    for idx in forest.edges:
        e = graph.edges[idx]
        adjacency[e.u].append(e.v)
        adjacency[e.v].append(e.u)
    comp = [-1] * n
    for start in range(n):
        if comp[start] != -1:
            continue
        comp[start] = start
        queue = [start]
        while queue:
            v = queue.pop()
            for w in adjacency[v]:
                if comp[w] == -1:
                    comp[w] = start
                    queue.append(w)
    root_by_comp = {comp[r]: r for r in forest.roots}
    return [root_by_comp[comp[v]] for v in range(n)]


def pair_weight_table(graph, forests) -> list[list[Fraction]]:
    """table[i][j]: total weight of forests in which j's tree is rooted at i."""
    n = graph.n
    table = [[Fraction(0)] * n for _ in range(n)]
    for f in forests:
        w = weight_of(instances_of(f), graph)
        roots = root_of_map(graph, f)
        for j in range(n):
            table[roots[j]][j] += w
    return table


def root_set_of(graph, forest) -> frozenset[int]:
    return frozenset(root_of_map(graph, forest))


def root_set_weights(graph, forests) -> dict[frozenset[int], Fraction]:
    """Total forest weight per exact root set."""
    out: dict[frozenset[int], Fraction] = {}
    for f in forests:
        key = root_set_of(graph, f)
        out[key] = out.get(key, Fraction(0)) + weight_of(instances_of(f), graph)
    return out


def oracle_cofactor_coeffs(graph, forests, i: int, j: int) -> list[Fraction]:
    """Coefficient k of the (i, j) cofactor polynomial, straight from the books:
    over every size-k subset phi of the remaining vertices, the weight of the
    forests rooted exactly at phi + {i} whose tree at i contains j."""
    n = graph.n
    table: dict[frozenset[int], Fraction] = {}
    for f in forests:
        roots = root_of_map(graph, f)
        if roots[j] != i:
            continue
        key = root_set_of(graph, f)
        table[key] = table.get(key, Fraction(0)) + weight_of(instances_of(f), graph)
    others = [v for v in range(n) if v != i and v != j]
    coeffs = [Fraction(0)] * n
    for k in range(len(others) + 1):
        for phi in combinations(others, k):
            coeffs[k] += table.get(frozenset(phi) | {i}, Fraction(0))
    return coeffs
