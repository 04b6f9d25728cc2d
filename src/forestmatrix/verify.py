"""Exhaustive identity checklist for small graphs.

Every matrix-side quantity the package computes is compared here against the
brute-force enumeration oracle on one user-supplied graph: determinant and
cofactors of W, accessibility, characteristic-polynomial coefficients,
cofactor polynomials of lambda*I + L and of lambda*I - L, principal minors
against root-set filters and contractions, path-expansion cofactors, and
invariance under parallel-instance merging. All comparisons are exact.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from math import lcm, prod
from typing import NamedTuple

from . import oracle
from .forest import (
    _companion,
    _signed,
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
    _scaled_rows,
    contract,
    merge_parallel,
    to_bidirected,
)
from .linalg import SquareMatrix, _adjugates
from .oracle import DEFAULT_GUARD, Guard, GuardExceededError, _path_sum

__all__ = ["CheckResult", "run_all_checks"]

# Never interpolation nodes (the integers 0 ... n), so evaluating the
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
    """Enumeration totals from one pass over a graph's spanning forests, each
    an integer over den = lcm(instance denominators)**(n - 1).

    pair[(i, j)] is the weight of the forests in which j's tree is rooted at
    i; coeffs[(i, j)][k] and signed[(i, j)][k] split it by k + 1 trees, the
    latter weighting each forest by (-1)**(number of instances). by_roots maps
    each exact root set, and by_count[k] each tree count, to its total weight.
    """

    count: int
    den: int
    pair: dict[tuple[int, int], int]
    coeffs: dict[tuple[int, int], list[int]]
    signed: dict[tuple[int, int], list[int]]
    by_roots: dict[frozenset[int], int]
    by_count: list[int]

    def scaled(self, k: int) -> tuple:
        """Every total times k: two tables hold the same values when each one's
        totals times the other's den are equal."""
        sums = ({key: t * k for key, t in totals.items()} for totals in (self.pair, self.by_roots))
        grids = ({p: [t * k for t in ts] for p, ts in g.items()} for g in (self.coeffs, self.signed))
        return (*sums, *grids, [t * k for t in self.by_count])


def _equals(x: Fraction, total: int, den: int) -> bool:
    """x == total / den, cross-multiplied; den may be negative."""
    return x.numerator * den == total * x.denominator


def _tabulate(graph: AnyGraph, forests) -> _ForestTable:
    # A forest has at most n - 1 instances, so its weight is an integer over
    # den. Forests with the same roots and instance-count parity add to the
    # same entries, so their weights are summed first and spread once per group.
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
    pair = {p: sum(ws) for p, ws in coeffs.items()}
    return _ForestTable(len(forests), den, pair, coeffs, signed, by_roots, by_count)


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

    The forests are enumerated once, into a table of integers over one den that
    every comparison with it cross-multiplies, and every determinant is
    forest_det's, once per lambda: det W at 1, det L at 0 and det(lambda*I + L)
    at EVAL_POINTS. Each principal submatrix L minus phi that keeps at least 2
    vertices is eliminated once for its adjugate (adj L is matrix_tree_check's),
    whose entry (v, v), v after all of phi, is the minor det L minus (phi + v);
    only det L and the 1 of the empty matrix are not read there. The signed
    cofactor polynomials are L's grid flipped to lambda*I - L; both grids are
    evaluated on integers against the adjugates of the scaled rows.
    """
    twin = graph if isinstance(graph, Multidigraph) else to_bidirected(graph)
    _check_budget(twin, guard)
    n = graph.n
    lap = graph_matrix(graph)
    w = forest_matrix(lap)
    det_w, det_l, *dets = (forest_det(graph, lam) for lam in (1, 0, *EVAL_POINTS))
    adj = w.adjugate()
    forests = _enum_forests(graph, guard)
    table = _tabulate(graph, forests)
    report = matrix_tree_check(graph, guard)
    phis = [phi for size in range(n - 1) for phi in combinations(range(n), size)]
    adjs = {phi: lap.delete_rows_cols(phi).adjugate() if phi else report.cofactors.transpose() for phi in phis}
    minors = {(): det_l, tuple(range(n)): Fraction(1)}
    for phi, sub in adjs.items():  # a v after all of phi has place v - k in L minus phi
        k = len(phi)
        minors.update(((*phi, v), sub[v - k, v - k]) for v in range(max(phi, default=-1) + 1, n))
    polys = lap._cofactor_polys()
    signed = [[_signed(p, n) for p in row] for row in polys]
    return [
        _check_matrix_tree(report),
        _check_forest_det(graph, det_w, forests),
        _check_forest_cofactors(adj, table),
        _check_row_partition(adj, det_w),
        _check_accessibility(graph, w, det_w, table),
        _check_merge_invariance(graph, w, table, guard),
        _check_contraction_minors(twin, minors, guard),
        _check_rooted_minors(n, minors, adjs, table),
        _check_charpoly(graph, det_w, dets, minors, table),
        _check_polys(
            "cofactor-polynomials", polys, graph, 1, EVAL_POINTS, table.den, table.coeffs,
            f"coefficients match bucketed enumeration and evaluations at "
            f"{len(EVAL_POINTS)} points for all {n * n} pairs",
        ),
        _check_path_expansion(lap, adjs, minors, guard),
        # L's grid flipped to lambda*I - L, against adjugates of lambda*I - L at 1 ... n+1:
        # flipped back, none is a node 0 ... n-1 of L's grid, and n+1 points pin degree n-1
        _check_polys(
            "signed-cofactor-polynomials", signed, graph, -1, range(1, n + 2), table.den, table.signed,
            "arc-parity-signed coefficients match the cofactors of the characteristic matrix of L",
        ),
    ]


def _check_matrix_tree(report) -> CheckResult:
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
        det_w == total,
        detail=f"det W = {det_w} over {len(forests)} spanning forests",
    )


def _check_forest_cofactors(adj, table) -> CheckResult:
    return CheckResult(
        "forest-cofactors",
        all(_equals(adj[j, i], total, table.den) for (i, j), total in table.pair.items()),
        detail=f"checked {len(table.pair)} cofactors against filtered enumeration totals",
    )


def _check_row_partition(adj, det_w) -> CheckResult:
    return CheckResult(
        "cofactor-row-partition",
        all(s == det_w for s in adj.row_sums()),
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
    over = det_w.numerator * table.den  # q_ij * det_w == pair[(j, i)] / den
    ok = ok and all(_equals(q[i, j], t * det_w.denominator, over) for (j, i), t in table.pair.items())
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
    ok = ok and merged_table.scaled(table.den) == table.scaled(merged_table.den)
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


def _check_rooted_minors(n, minors, adjs, table) -> CheckResult:
    by_roots, den = table.by_roots, table.den
    ok = all(_equals(minor, by_roots.get(frozenset(phi), 0), den) for phi, minor in minors.items())
    for phi, adj in adjs.items():  # entry (a, a) is the minor of phi and the a-th kept vertex
        kept = enumerate(v for v in range(n) if v not in phi)
        ok = ok and all(_equals(adj[a, a], by_roots.get(frozenset((*phi, v)), 0), den) for a, v in kept)
    return CheckResult(
        "rooted-minors",
        ok,
        detail="det of L minus any vertex set equals the weight of forests "
        "rooted exactly there",
    )


def _check_charpoly(graph, det_w, dets, minors, table) -> CheckResult:
    poly = charpoly_forest_coeffs(graph)
    minor_sums = [Fraction(0)] * (graph.n + 1)
    for phi, minor in minors.items():
        minor_sums[len(phi)] += minor
    ok = list(poly.coeffs) == minor_sums  # so there are n + 1, as in by_count
    ok = ok and all(_equals(c, t, table.den) for c, t in zip(poly.coeffs, table.by_count))
    ok = ok and poly.evaluate(1) == det_w
    ok = ok and all(poly.evaluate(x) == det for x, det in zip(EVAL_POINTS, dets))
    return CheckResult(
        "charpoly-forest-coefficients",
        ok,
        detail="coefficient k equals the total weight of k-tree forests "
        f"and the degree-k principal minor sum; evaluations at {len(EVAL_POINTS)} points",
    )


def _check_polys(name, grid, graph, sign, points, den, column, detail) -> CheckResult:
    """Each polynomial (i, j) of lambda*I + sign*L in `grid` against the totals
    over den, and at each lambda = p/q against X = adj B, B = D * M the scaled
    rows of M = (sign*lambda)*I + L: adj(lambda*I + sign*L)_ji = sign**(n-1) *
    X_ji * d_i / det D, and Horner's rule on the coefficients over their lcm d
    gives H = d * q**deg * poly(p/q), so sign**(n-1) * H * det D == X_ji * d_i * d * q**deg."""
    refs = []
    for lam in points:
        rows, mults = _scaled_rows(graph, sign * lam)
        x = next(_adjugates(rows, mults, (0,)))
        refs.append((lam.numerator, lam.denominator, x, mults, sign ** (graph.n - 1) * prod(mults)))
    ok = True
    for i, row in enumerate(grid):
        for j, poly in enumerate(row):
            d = lcm(*(c.denominator for c in poly.coeffs))
            coeffs = [c.numerator * (d // c.denominator) for c in poly.coeffs]
            ok = ok and [c * den for c in coeffs] == [t * d for t in column[(i, j)]]
            for p, q, x, mults, scale in refs:
                h, qk = 0, 1
                for c in reversed(coeffs):
                    h, qk = h * p + c * qk, qk * q
                ok = ok and h * scale == x[j][i] * mults[i] * d * (qk // q)
    return CheckResult(name, ok, detail=detail)


def _check_path_expansion(lap, adjs, minors, guard) -> CheckResult:
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
    for phi, adj in adjs.items():
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
