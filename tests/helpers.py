"""Shared test utilities: random graph generators and independent oracles.

The checkers and determinants here deliberately avoid the package's own
algorithms (no parent-choice enumeration, no Bareiss) so that agreement
between the two sides actually means something: scan_forests and scan_trees
filter all 2**m instance subsets with their own union-find and in-degree
test, and leibniz_det, leibniz_cofactor and leibniz_adjugate expand
permutations. The exception is minor_adjugate, which takes each minor by the
package's determinant to check the adjugate's back substitution and
interpolation route at sizes Leibniz cannot reach.

Test-side references for operations the package has no caller for: diag and
matrix_sum (matrix algebra for identities such as m @ adj(m) == det(m) * I),
reversed_digraph (the arc flip that turns converging forests into diverging
ones) and graph_text (the graph file that parse_graph must read back).
min_degree_order is a reference copy of an elimination order the kernel must
reproduce.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, compress, permutations, product
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


def diag(n: int, c) -> SquareMatrix:
    """c times the n-by-n identity; c = 0 gives the zero matrix."""
    return SquareMatrix(tuple(tuple(c if i == j else 0 for j in range(n)) for i in range(n)))


def matrix_sum(a: SquareMatrix, b: SquareMatrix) -> SquareMatrix:
    """Entrywise sum of two matrices of one size."""
    assert a.n == b.n
    return SquareMatrix(tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a.entries, b.entries)))


def reversed_digraph(digraph: Multidigraph) -> Multidigraph:
    """Every arc flipped, instance order kept: converging-forest quantities of a
    digraph are the diverging-forest quantities of its reverse."""
    return Multidigraph(digraph.n, tuple((h, t, w) for t, h, w in digraph.arcs))


def graph_text(graph) -> str:
    """The graph as a graph file, one line per instance in order, 1-based labels."""
    kind = "directed" if isinstance(graph, Multidigraph) else "undirected"
    lines = [f"graph {kind} {graph.n}"] + [f"{a + 1} {b + 1} {w}" for a, b, w in graph.instances]
    return "\n".join(lines) + "\n"


def minor_adjugate(matrix: SquareMatrix) -> SquareMatrix:
    """Adjugate entry by entry: adj[i][j] is the signed minor of (j, i), each minor
    a separate determinant (no back substitution, no interpolation)."""
    n = matrix.n
    rows = matrix.entries

    def cofactor(i, j):
        minor = tuple(row[:j] + row[j + 1:] for r, row in enumerate(rows) if r != i)
        return (-1) ** (i + j) * SquareMatrix(minor).det()

    return SquareMatrix(tuple(tuple(cofactor(j, i) for j in range(n)) for i in range(n)))


def min_degree_order(rows, last) -> list[int]:
    """The greedy minimum-degree order (Tinney & Walker 1967) of the symmetric
    nonzero pattern of `rows`, ending with the indices of `last`: each step
    takes, of the indices not yet ordered and not in `last`, one with the
    fewest neighbours (the lowest index on a tie) and joins its neighbours into
    a clique. The reference for the kernel's Markowitz order on such patterns."""
    n = len(rows)
    adj = [set(compress(range(n), row)) - {r} for r, row in enumerate(rows)]
    degree = list(map(len, adj))
    left = [v for v in range(n) if v not in last]
    order = []
    while left:
        v = min(left, key=degree.__getitem__)
        left.remove(v)
        order.append(v)
        nbrs = adj[v]
        for u in nbrs:
            joined = adj[u]
            joined |= nbrs
            joined -= {u, v}
            degree[u] = len(joined)
    return order + list(last)


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


def leibniz_cofactor(matrix: SquareMatrix, i: int, j: int) -> Fraction:
    """(-1)**(i+j) times the Leibniz determinant of the minor without row i and column j."""
    minor = SquareMatrix(
        tuple(tuple(x for c, x in enumerate(row) if c != j)
              for r, row in enumerate(matrix.entries) if r != i)
    )
    return (-1) ** (i + j) * leibniz_det(minor)


def leibniz_adjugate(matrix: SquareMatrix) -> SquareMatrix:
    """Transposed matrix of Leibniz cofactors (usable up to n ~ 6)."""
    n = matrix.n
    return SquareMatrix(tuple(tuple(leibniz_cofactor(matrix, j, i) for j in range(n)) for i in range(n)))


def is_inverse(matrix: SquareMatrix, q: SquareMatrix) -> bool:
    """Whether q == matrix**-1: the Leibniz adjugate over the Leibniz determinant
    up to n = 6, and matrix @ q == I, multiplied out here, beyond."""
    n = matrix.n
    if n <= 6:
        det = leibniz_det(matrix)
        return q.entries == tuple(tuple(x / det for x in row) for row in leibniz_adjugate(matrix).entries)
    cols = tuple(zip(*q.entries))
    return all(sum(a * b for a, b in zip(row, col)) == (r == c)
               for r, row in enumerate(matrix.entries) for c, col in enumerate(cols))


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


def _components(n: int, pairs) -> list[int] | None:
    """Union-find component label of each vertex under the pairs, or None when
    a pair joins two vertices already joined (parallel pairs make a cycle)."""
    label = list(range(n))

    def find(x):
        while label[x] != x:
            x = label[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra == rb:
            return None
        label[ra] = rb
    return [find(v) for v in range(n)]


def _scan(graph):
    """(instance indices, their (tail, head) or (u, v) pairs, component labels)
    for every acyclic one of the 2**m instance subsets."""
    m = len(graph.instances)
    for mask in range(1 << m):
        idxs = [i for i in range(m) if mask >> i & 1]
        ends = [graph.instances[i][:2] for i in idxs]
        comps = _components(graph.n, ends)
        if comps is not None:
            yield idxs, ends, comps


def _in_degree_at_most_one(ends) -> bool:
    return len({head for _, head in ends}) == len(ends)


def scan_forests(graph) -> tuple:
    """Every spanning forest from a scan of all instance subsets, sorted like the
    enumerations (by size, then instances, then roots): a diverging forest is an
    acyclic arc subset with in-degree <= 1, a rooted forest an acyclic edge
    subset with one root chosen in each component."""
    out = []
    for idxs, ends, comps in _scan(graph):
        if isinstance(graph, Multidigraph):
            if _in_degree_at_most_one(ends):
                out.append(((len(idxs), idxs), DivergingForest(frozenset(idxs))))
            continue
        groups: dict[int, list[int]] = {}
        for v, c in enumerate(comps):
            groups.setdefault(c, []).append(v)
        for choice in product(*groups.values()):
            key = (len(idxs), idxs, sorted(choice))
            out.append((key, RootedForest(frozenset(idxs), frozenset(choice))))
    return tuple(f for _, f in sorted(out, key=lambda item: item[0]))


def scan_trees(graph, root: int = 0) -> tuple:
    """Every spanning tree from a scan of all instance subsets, sorted by
    instances: acyclic subsets of n - 1 instances, for a digraph with in-degree
    <= 1 and no arc into `root` (as DivergingForest), for a graph as edge sets."""
    out = []
    for idxs, ends, _ in _scan(graph):
        if len(idxs) != graph.n - 1:
            continue
        if isinstance(graph, Multidigraph):
            if _in_degree_at_most_one(ends) and all(head != root for _, head in ends):
                out.append((idxs, DivergingForest(frozenset(idxs))))
        else:
            out.append((idxs, frozenset(idxs)))
    return tuple(t for _, t in sorted(out, key=lambda item: item[0]))
