"""Exhaustive identity checklist for small graphs.

Every matrix-side quantity the package computes is compared here against the
brute-force enumeration oracle on one user-supplied graph: determinant and
cofactors of W, accessibility, characteristic-polynomial coefficients,
cofactor polynomials of L and of -L, principal minors against root-set
filters and contractions, path-expansion cofactors, and invariance under
parallel-instance merging. All comparisons are exact.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations
from math import comb

from . import oracle
from .forest import (
    _companion,
    _path_sum,
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
from .oracle import DEFAULT_GUARD, Guard, GuardExceededError

__all__ = ["CheckResult", "run_all_checks"]

# Never interpolation nodes (nonnegative integers up to 2n), so evaluating the
# interpolated polynomials here tests them instead of passing by construction.
EVAL_POINTS = (-1, -2, Fraction(1, 2), Fraction(-3, 2))


@dataclass(frozen=True)
class CheckResult:
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


@dataclass(frozen=True)
class _ForestTable:
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
    # Forests with the same roots and instance-count parity add to the same
    # entries, so their weights are summed first and spread once per group.
    groups: dict[tuple[tuple[int, ...], int], Fraction] = {}
    for f in forests:
        inst = _instances_of(f)
        key = (oracle.tree_roots(graph, f), len(inst) % 2)
        groups[key] = groups.get(key, 0) + oracle.weight_of(inst, graph)
    n = graph.n
    pairs = [(i, j) for i in range(n) for j in range(n)]
    pair = dict.fromkeys(pairs, Fraction(0))
    coeffs = {p: [Fraction(0)] * n for p in pairs}
    signed = {p: [Fraction(0)] * n for p in pairs}
    by_roots: dict[frozenset[int], Fraction] = {}
    by_count = [Fraction(0)] * (n + 1)
    for (root_of, odd), w in groups.items():
        sw = -w if odd else w
        roots = frozenset(root_of)
        k = len(roots)
        by_roots[roots] = by_roots.get(roots, Fraction(0)) + w
        by_count[k] += w
        for j, i in enumerate(root_of):
            pair[(i, j)] += w
            coeffs[(i, j)][k - 1] += w
            signed[(i, j)][k - 1] += sw
    return _ForestTable(len(forests), pair, coeffs, signed, by_roots, by_count)


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

    The forests are enumerated once and each principal minor det(L minus phi) once.
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
    minors = {
        phi: lap.delete_rows_cols(phi).det()
        for size in range(n + 1)
        for phi in combinations(range(n), size)
    }
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
        _check_path_expansion(graph, lap, minors, guard),
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
    ok = ok and replace(merged_table, count=table.count) == table
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
        scanned += comb(len(contracted.arcs), contracted.n - 1)
    return CheckResult(
        "contraction-minors",
        ok,
        detail=f"det of L minus a root set equals the contracted graph's "
        f"diverging-tree weight for all {len(minors) - 1} nonempty sets "
        f"({scanned} tree-sized subsets scanned)",
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


def _check_path_expansion(graph, lap, minors, guard) -> CheckResult:
    n = graph.n
    ok = True
    count = 0
    for size in range(0, n - 1):
        for phi in combinations(range(n), size):
            sub = lap.delete_rows_cols(phi)
            adj = sub.adjugate()
            companion = _companion(sub)
            kept = [v for v in range(n) if v not in phi]

            # det(sub minus vs) is the table's det(L minus (phi + vs)), vs relabelled
            def minor(vs, phi=phi, kept=kept):
                return minors[tuple(sorted([*phi, *map(kept.__getitem__, vs)]))]

            for i in range(sub.n):
                for j in range(sub.n):
                    if i != j:
                        ok = ok and _path_sum(companion, i, j, minor, guard) == adj.entries[j][i]
                        count += 1
    return CheckResult(
        "path-expansion-cofactors",
        ok,
        detail=f"path expansion reproduced {count} off-diagonal cofactors of "
        "L and its principal submatrices",
    )
