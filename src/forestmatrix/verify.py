"""Exhaustive identity checklist for small graphs.

Every matrix-side quantity the package computes is compared here against the
brute-force enumeration oracle on one user-supplied graph: determinant and
cofactors of W, accessibility, characteristic-polynomial coefficients,
cofactor polynomials of L and of -L, principal minors against root-set
filters and contractions, path-expansion cofactors, and invariance under
parallel-instance merging. All comparisons are exact.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from math import lcm, prod
from typing import NamedTuple

from . import oracle
from .forest import (
    _companion,
    accessibility,
    charpoly_forest_coeffs,
    forest_det,
    forest_matrix,
    graph_matrix,
    matrix_tree_check,
)
from .graphs import (
    AnyGraph,
    GraphValidationError,
    Multidigraph,
    Multigraph,
    contract,
    merge_parallel,
    to_bidirected,
)
from .linalg import SquareMatrix
from .oracle import DEFAULT_GUARD, Guard, GuardExceededError, _path_sum

__all__ = ["CheckResult", "run_all_checks"]

# Never interpolation nodes (nonnegative integers up to 2n), so evaluating the
# interpolated polynomials here tests them instead of passing by construction.
EVAL_POINTS = (-1, -2, Fraction(1, 2), Fraction(-3, 2))


class CheckResult(NamedTuple):
    name: str
    passed: bool
    skipped: bool = False
    detail: str = ""


def _instances_of(forest) -> frozenset[int]:
    return forest.arcs if isinstance(forest, oracle.DivergingForest) else forest.edges


def _enum_forests(graph: AnyGraph, guard: Guard):
    if isinstance(graph, Multidigraph):
        return oracle.enum_diverging_forests(graph, guard)
    return oracle.enum_rooted_forests(graph, guard)


class _ForestTable(NamedTuple):
    """Enumeration totals from one pass over a graph's spanning forests.

    pair[(i, j)] is the weight of the forests in which j's tree is rooted at
    i; coeffs[(i, j)][k] and signed[(i, j)][k] split it by k + 1 trees, the
    latter weighting each forest by (-1)**(number of instances). by_roots maps
    each exact root set, and by_count[k] each tree count, to its total weight.
    """

    count: int
    pair: dict[tuple[int, int], Fraction]
    coeffs: dict[tuple[int, int], list[Fraction]]
    signed: dict[tuple[int, int], list[Fraction]]
    by_roots: dict[frozenset[int], Fraction]
    by_count: list[Fraction]


def _tabulate(graph: AnyGraph, forests) -> _ForestTable:
    # A forest has at most n - 1 instances, so its weight is an integer over
    # den = lcm(instance denominators)**(n - 1). The tables sum those integers,
    # and each entry becomes one Fraction at the end. Forests with the same
    # roots and instance-count parity add to the same entries, so their
    # weights are summed first and spread once per group.
    n = graph.n
    den = lcm(*(inst.w.denominator for inst in graph.instances)) ** (n - 1)
    groups: dict[tuple[tuple[int, ...], int], int] = {}
    for f in forests:
        inst = _instances_of(f)
        key = (oracle.tree_roots(graph, f), len(inst) % 2)
        w = oracle.weight_of(inst, graph)
        groups[key] = groups.get(key, 0) + w.numerator * (den // w.denominator)
    pairs = [(i, j) for i in range(n) for j in range(n)]
    coeffs = {p: [0] * n for p in pairs}
    signed = {p: [0] * n for p in pairs}
    by_roots: dict[frozenset[int], int] = {}
    by_count = [0] * (n + 1)
    for (root_of, odd), w in groups.items():
        sw = -w if odd else w
        roots = frozenset(root_of)
        k = len(roots)
        by_roots[roots] = by_roots.get(roots, 0) + w
        by_count[k] += w
        for j, i in enumerate(root_of):
            coeffs[(i, j)][k - 1] += w
            signed[(i, j)][k - 1] += sw
    return _ForestTable(
        len(forests),
        {p: Fraction(sum(ws), den) for p, ws in coeffs.items()},
        {p: [Fraction(w, den) for w in ws] for p, ws in coeffs.items()},
        {p: [Fraction(w, den) for w in ws] for p, ws in signed.items()},
        {roots: Fraction(w, den) for roots, w in by_roots.items()},
        [Fraction(w, den) for w in by_count],
    )


def _check_budget(twin: Multidigraph, guard: Guard) -> None:
    if twin.n < 1:
        raise GraphValidationError("verification needs at least one vertex")
    budget = len(twin.arcs)
    if twin.n > guard.max_vertices or budget > guard.max_instances:
        raise GuardExceededError(
            f"{twin.n} vertices / {budget} enumerable instances exceed the guard "
            f"({guard.max_vertices} vertices / {guard.max_instances} instances); "
            "a partial run would be misleading, raise --max-enum to proceed"
        )


def run_all_checks(graph: AnyGraph, guard: Guard = DEFAULT_GUARD) -> list[CheckResult]:
    """Run the whole checklist; raises GuardExceededError when the bidirected
    twin exceeds the size guard and GraphValidationError on a graph without vertices.

    The forests are enumerated once, and each principal submatrix L minus phi
    is built once and its determinant taken once.
    """
    twin = graph if isinstance(graph, Multidigraph) else to_bidirected(graph)
    _check_budget(twin, guard)
    n = graph.n
    lap = graph_matrix(graph)
    w = forest_matrix(lap)
    det_w = w.det()
    adj = w.adjugate()
    forests = _enum_forests(graph, guard)
    table = _tabulate(graph, forests)
    phis = [phi for size in range(n + 1) for phi in combinations(range(n), size)]
    subs = {phi: lap.delete_rows_cols(phi) for phi in phis}
    minors = {phi: sub.det() for phi, sub in subs.items()}
    return [
        _check_matrix_tree(graph, guard),
        _check_forest_det(graph, det_w, forests),
        _check_forest_cofactors(graph, adj, table),
        _check_row_partition(adj, det_w),
        _check_accessibility(graph, w, det_w, table),
        _check_merge_invariance(graph, w, table, guard),
        _check_contraction_minors(twin, minors, guard),
        _check_rooted_minors(minors, table),
        _check_charpoly(graph, lap, det_w, minors, table),
        _check_polys(
            "cofactor-polynomials", lap, EVAL_POINTS, table.coeffs,
            f"coefficients match bucketed enumeration and evaluations at "
            f"{len(EVAL_POINTS)} points for all {n * n} pairs",
        ),
        _check_path_expansion(lap, subs, minors, guard),
        # n+1 points, none of them a node, pin every coefficient of a degree n-1 polynomial
        _check_polys(
            "signed-cofactor-polynomials", -lap, range(-1, -n - 2, -1), table.signed,
            "arc-parity-signed coefficients match the cofactors of the "
            "characteristic matrix of L",
        ),
    ]


def _check_matrix_tree(graph, guard) -> CheckResult:
    report = matrix_tree_check(graph, guard)
    kind = "per-row diverging-tree weights" if report.directed else "spanning-tree weight"
    return CheckResult(
        "matrix-tree-cofactors",
        report.passed,
        detail=f"all cofactors of L match the {kind}",
    )


def _check_forest_det(graph, det_w, forests) -> CheckResult:
    total = oracle.set_weight((_instances_of(f) for f in forests), graph)
    return CheckResult(
        "forest-determinant",
        forest_det(graph) == det_w == total,
        detail=f"det W = {det_w} over {len(forests)} spanning forests",
    )


def _check_forest_cofactors(graph, adj, table) -> CheckResult:
    n = graph.n
    ok = all(adj.entries[j][i] == table.pair[(i, j)] for i in range(n) for j in range(n))
    return CheckResult(
        "forest-cofactors",
        ok,
        detail=f"checked {n * n} cofactors against filtered enumeration totals",
    )


def _check_row_partition(adj, det_w) -> CheckResult:
    ok = all(s == det_w for s in adj.row_sums())
    return CheckResult(
        "cofactor-row-partition",
        ok,
        detail="cofactors over all start vertices sum to det W for every target",
    )


def _check_accessibility(graph, w, det_w, table) -> CheckResult:
    n = graph.n
    if det_w == 0:
        return CheckResult(
            "accessibility-matrix",
            True,
            skipped=True,
            detail="det W = 0, the accessibility matrix does not exist",
        )
    q = accessibility(graph).matrix
    ok = (q @ w) == SquareMatrix.identity(n)
    ok = ok and all(s == 1 for s in q.row_sums())
    ok = ok and all(
        q.entries[i][j] * det_w == table.pair[(j, i)] for i in range(n) for j in range(n)
    )
    if isinstance(graph, Multigraph):
        ok = ok and q.is_symmetric()
    return CheckResult(
        "accessibility-matrix",
        ok,
        detail="Q W = I, unit row sums, entries match enumeration ratios",
    )


def _check_merge_invariance(graph, w, table, guard) -> CheckResult:
    merged = merge_parallel(graph)
    ok = forest_matrix(graph_matrix(merged)) == w
    merged_table = _tabulate(merged, _enum_forests(merged, guard))
    # a forest holds at most one instance of each parallel class, so merging
    # keeps every root structure and instance count; only the forest count drops
    ok = ok and merged_table._replace(count=table.count) == table
    return CheckResult(
        "parallel-merge-invariance",
        ok,
        detail=f"{len(graph.instances)} instances merged to {len(merged.instances)}; "
        f"W and all filtered totals unchanged ({merged_table.count} forests "
        "enumerated for the merged graph)",
    )


def _check_contraction_minors(twin, minors, guard) -> CheckResult:
    ok = minors[()] == 0  # empty root set: no trees, and L is always singular
    scanned = 0
    for phi, minor in minors.items():
        if not phi:
            continue
        contracted, star = contract(twin, phi)
        trees = oracle.enum_diverging_trees(contracted, star, guard)
        total = oracle.set_weight((t.arcs for t in trees), contracted)
        ok = ok and minor == total
        heads = [a.head for a in contracted.arcs]
        scanned += prod(heads.count(v) for v in range(contracted.n) if v != star)
    return CheckResult(
        "contraction-minors",
        ok,
        detail=f"det of L minus a root set equals the contracted graph's "
        f"diverging-tree weight for all {len(minors) - 1} nonempty sets "
        f"({scanned} parent choices scanned)",
    )


def _check_rooted_minors(minors, table) -> CheckResult:
    ok = all(
        minor == table.by_roots.get(frozenset(phi), Fraction(0)) for phi, minor in minors.items()
    )
    return CheckResult(
        "rooted-minors",
        ok,
        detail="det of L minus any vertex set equals the weight of forests "
        "rooted exactly there",
    )


def _check_charpoly(graph, lap, det_w, minors, table) -> CheckResult:
    poly = charpoly_forest_coeffs(graph)
    minor_sums = [Fraction(0)] * (graph.n + 1)
    for phi, minor in minors.items():
        minor_sums[len(phi)] += minor
    ok = list(poly.coeffs) == table.by_count
    ok = ok and list(poly.coeffs) == minor_sums
    ok = ok and poly.evaluate(1) == det_w
    ok = ok and all(poly.evaluate(x) == forest_matrix(lap, x).det() for x in EVAL_POINTS)
    return CheckResult(
        "charpoly-forest-coefficients",
        ok,
        detail="coefficient k equals the total weight of k-tree forests "
        f"and the degree-k principal minor sum; evaluations at {len(EVAL_POINTS)} points",
    )


def _check_polys(name, matrix, points, column, detail) -> CheckResult:
    adjs = [forest_matrix(matrix, lam).adjugate() for lam in points]
    ok = True
    for i, row in enumerate(matrix._cofactor_polys()):
        for j, poly in enumerate(row):
            ok = ok and list(poly.coeffs) == column[(i, j)]
            for lam, adj in zip(points, adjs):
                ok = ok and poly.evaluate(lam) == adj.entries[j][i]
    return CheckResult(name, ok, detail=detail)


def _check_path_expansion(lap, subs, minors, guard) -> CheckResult:
    """Each off-diagonal cofactor of L minus phi, for every phi that leaves at
    least 2 vertices, against its path expansion. The companion digraph of L
    minus phi is L's restricted to the kept vertices, so the paths of L's
    companion are enumerated once per ordered pair: a path through phi is not
    one of L minus phi's and counts 0, and any other path P weighs its minor
    det(L minus phi minus P) = minors[phi + V(P)]."""
    n = lap.n
    companion = _companion(lap)
    paths = {ij: oracle.enum_paths(companion, *ij, guard) for ij in permutations(range(n), 2)}
    ok, count = True, 0
    for phi, sub in subs.items():
        if sub.n < 2:
            continue
        adj = sub.adjugate()
        kept = [v for v in range(n) if v not in phi]

        def minor(vs, phi=frozenset(phi)):
            return minors[tuple(sorted(phi.union(vs)))] if phi.isdisjoint(vs) else 0

        for (a, i), (b, j) in permutations(enumerate(kept), 2):
            ok = ok and _path_sum(companion, paths[(i, j)], minor) == adj.entries[b][a]
            count += 1
    return CheckResult(
        "path-expansion-cofactors",
        ok,
        detail=f"path expansion reproduced {count} off-diagonal cofactors of "
        "L and its principal submatrices",
    )
