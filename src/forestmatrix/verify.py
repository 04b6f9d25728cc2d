"""Exhaustive identity checklist for small graphs.

Every matrix-side quantity the package computes is compared here against the
brute-force enumeration oracle on one user-supplied graph: determinant and
cofactors of W, accessibility, characteristic-polynomial coefficients,
cofactor polynomials (plain and signed), principal minors against root-set
filters and contractions, path-expansion cofactors, and invariance under
parallel-instance merging. All comparisons are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import oracle
from .forest import (
    accessibility,
    charpoly_forest_coeffs,
    cofactor_poly,
    forest_det,
    forest_matrix,
    graph_matrix,
    matrix_tree_check,
    path_expansion_cofactor,
    signed_cofactor_poly,
)
from .graphs import AnyGraph, Multidigraph, Multigraph, contract, merge_parallel, to_bidirected
from .linalg import SquareMatrix
from .oracle import DEFAULT_GUARD, Guard, GuardExceededError

__all__ = ["CheckResult", "run_all_checks"]

# Never interpolation nodes (those are 0, 1, ..., n), so evaluating the
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


def _filter_pair(graph: AnyGraph, forests, i: int, j: int):
    if isinstance(graph, Multidigraph):
        return oracle.filter_diverging(graph, forests, i, j)
    return oracle.filter_rooted(graph, forests, i, j)


def _root_set(graph: AnyGraph, forest) -> frozenset[int]:
    if isinstance(graph, Multidigraph):
        return oracle.diverging_roots(graph, forest)
    return forest.roots


def _check_budget(graph: AnyGraph, guard: Guard) -> None:
    if graph.n < 1:
        raise GuardExceededError("verification needs at least one vertex")
    m = len(graph.instances)
    budget = m if isinstance(graph, Multidigraph) else 2 * m
    if graph.n > guard.max_vertices or budget > guard.max_instances:
        raise GuardExceededError(
            f"{graph.n} vertices / {budget} enumerable instances exceed the guard "
            f"({guard.max_vertices} vertices / {guard.max_instances} instances); "
            "a partial run would be misleading, raise --max-enum to proceed"
        )


def run_all_checks(graph: AnyGraph, guard: Guard = DEFAULT_GUARD) -> list[CheckResult]:
    """Run the whole checklist; raises GuardExceededError above the size guard."""
    _check_budget(graph, guard)
    directed = isinstance(graph, Multidigraph)
    n = graph.n
    lap = graph_matrix(graph)
    w = forest_matrix(lap)
    det_w = w.det()
    forests = _enum_forests(graph, guard)
    pair_weight = {
        (i, j): oracle.set_weight(
            (_instances_of(f) for f in _filter_pair(graph, forests, i, j)), graph
        )
        for i in range(n)
        for j in range(n)
    }

    checks = [
        _check_matrix_tree(graph, guard),
        _check_forest_det(graph, det_w, forests),
        _check_forest_cofactors(graph, w, pair_weight),
        _check_row_partition(graph, w, det_w),
        _check_accessibility(graph, w, det_w, pair_weight),
        _check_merge_invariance(graph, w, guard),
        _check_contraction_minors(graph, lap, guard),
        _check_rooted_minors(graph, lap, forests),
        _check_charpoly(graph, lap, det_w, forests),
        _check_cofactor_polys(graph, lap, forests),
        _check_path_expansion(graph, lap, guard),
        _check_signed_polys(graph, lap, forests),
    ]
    return checks


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


def _check_forest_cofactors(graph, w, pair_weight) -> CheckResult:
    n = graph.n
    ok = all(w.cofactor(i, j) == pair_weight[(i, j)] for i in range(n) for j in range(n))
    return CheckResult(
        "forest-cofactors",
        ok,
        detail=f"checked {n * n} cofactors against filtered enumeration totals",
    )


def _check_row_partition(graph, w, det_w) -> CheckResult:
    n = graph.n
    ok = all(
        sum((w.cofactor(j, i) for j in range(n)), Fraction(0)) == det_w for i in range(n)
    )
    return CheckResult(
        "cofactor-row-partition",
        ok,
        detail="cofactors over all start vertices sum to det W for every target",
    )


def _check_accessibility(graph, w, det_w, pair_weight) -> CheckResult:
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
        q.entries[i][j] * det_w == pair_weight[(j, i)] for i in range(n) for j in range(n)
    )
    if isinstance(graph, Multigraph):
        ok = ok and q.is_symmetric()
    return CheckResult(
        "accessibility-matrix",
        ok,
        detail="Q W = I, unit row sums, entries match enumeration ratios",
    )


def _check_merge_invariance(graph, w, guard) -> CheckResult:
    merged = merge_parallel(graph)
    ok = forest_matrix(graph_matrix(merged)) == w
    m_forests = _enum_forests(merged, guard)
    g_forests = _enum_forests(graph, guard)
    n = graph.n
    for i in range(n):
        for j in range(n):
            a = oracle.set_weight(
                (_instances_of(f) for f in _filter_pair(graph, g_forests, i, j)), graph
            )
            b = oracle.set_weight(
                (_instances_of(f) for f in _filter_pair(merged, m_forests, i, j)), merged
            )
            ok = ok and a == b
    return CheckResult(
        "parallel-merge-invariance",
        ok,
        detail=f"{len(graph.instances)} instances merged to {len(merged.instances)}; "
        "W and all filtered totals unchanged",
    )


def _check_contraction_minors(graph, lap, guard) -> CheckResult:
    digraph = graph if isinstance(graph, Multidigraph) else to_bidirected(graph)
    ok = lap.det() == 0  # empty root set: no trees, and L is always singular
    count = 0
    for size in range(1, graph.n + 1):
        for phi in combinations(range(graph.n), size):
            contracted, star = contract(digraph, phi)
            trees = oracle.enum_diverging_trees(contracted, star, guard)
            total = oracle.set_weight((t.arcs for t in trees), contracted)
            ok = ok and lap.delete_rows_cols(phi).det() == total
            count += 1
    return CheckResult(
        "contraction-minors",
        ok,
        detail=f"det of L minus a root set equals the contracted graph's "
        f"diverging-tree weight for all {count} nonempty sets",
    )


def _check_rooted_minors(graph, lap, forests) -> CheckResult:
    ok = True
    for size in range(0, graph.n + 1):
        for phi in combinations(range(graph.n), size):
            chosen = oracle.filter_roots(graph, forests, phi)
            total = oracle.set_weight((_instances_of(f) for f in chosen), graph)
            ok = ok and lap.delete_rows_cols(phi).det() == total
    return CheckResult(
        "rooted-minors",
        ok,
        detail="det of L minus any vertex set equals the weight of forests "
        "rooted exactly there",
    )


def _check_charpoly(graph, lap, det_w, forests) -> CheckResult:
    poly = charpoly_forest_coeffs(graph)
    n = graph.n
    by_root_count = [Fraction(0)] * (n + 1)
    for f in forests:
        by_root_count[len(_root_set(graph, f))] += oracle.weight_of(_instances_of(f), graph)
    ok = list(poly.coeffs) == by_root_count
    ok = ok and all(poly.coeffs[k] == lap.principal_minor_sum(k) for k in range(n + 1))
    ok = ok and poly.evaluate(1) == det_w
    ok = ok and all(poly.evaluate(x) == forest_matrix(lap, x).det() for x in EVAL_POINTS)
    return CheckResult(
        "charpoly-forest-coefficients",
        ok,
        detail="coefficient k equals the total weight of k-tree forests "
        f"and the degree-k principal minor sum; evaluations at {len(EVAL_POINTS)} points",
    )


def _oracle_cofactor_coeffs(graph, forests, i, j) -> list[Fraction]:
    """Coefficient k: weight of forests joining j into i's tree with k+1 trees."""
    n = graph.n
    coeffs = [Fraction(0)] * n
    for f in _filter_pair(graph, forests, i, j):
        k = len(_root_set(graph, f)) - 1
        coeffs[k] += oracle.weight_of(_instances_of(f), graph)
    return coeffs


def _check_cofactor_polys(graph, lap, forests) -> CheckResult:
    n = graph.n
    ok = True
    for i in range(n):
        for j in range(n):
            poly = cofactor_poly(graph, i, j)
            ok = ok and list(poly.coeffs) == _oracle_cofactor_coeffs(graph, forests, i, j)
            for lam in EVAL_POINTS:
                direct = forest_matrix(lap, lam).cofactor(i, j)
                ok = ok and poly.evaluate(lam) == direct
    return CheckResult(
        "cofactor-polynomials",
        ok,
        detail=f"coefficients match bucketed enumeration and evaluations at "
        f"{len(EVAL_POINTS)} points for all {n * n} pairs",
    )


def _check_path_expansion(graph, lap, guard) -> CheckResult:
    n = graph.n
    ok = True
    count = 0
    for size in range(0, n - 1):
        for phi in combinations(range(n), size):
            sub = lap.delete_rows_cols(phi)
            for i in range(sub.n):
                for j in range(sub.n):
                    if i != j:
                        ok = ok and path_expansion_cofactor(sub, i, j, guard) == sub.cofactor(i, j)
                        count += 1
    return CheckResult(
        "path-expansion-cofactors",
        ok,
        detail=f"path expansion reproduced {count} off-diagonal cofactors of "
        "L and its principal submatrices",
    )


def _check_signed_polys(graph, lap, forests) -> CheckResult:
    n = graph.n
    ok = True
    for i in range(n):
        for j in range(n):
            poly = signed_cofactor_poly(graph, i, j)
            signed = [Fraction(0)] * n
            for f in _filter_pair(graph, forests, i, j):
                inst = _instances_of(f)
                k = len(_root_set(graph, f)) - 1
                sgn = -1 if len(inst) % 2 else 1
                signed[k] += sgn * oracle.weight_of(inst, graph)
            ok = ok and list(poly.coeffs) == signed
            # n+1 evaluation points pin every coefficient of a degree n-1 polynomial
            for lam in list(range(n)) + [-1]:
                direct = forest_matrix(-lap, lam).cofactor(i, j)
                ok = ok and poly.evaluate(lam) == direct
    return CheckResult(
        "signed-cofactor-polynomials",
        ok,
        detail="arc-parity-signed coefficients match the cofactors of the "
        "characteristic matrix of L",
    )
