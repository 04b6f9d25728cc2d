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
from math import prod
from operator import mul
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
from .linalg import _adjugates, _cofactor_grid, _integer_rows
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


class _ForestTable(NamedTuple):
    """Enumeration totals from one walk over a graph's spanning forests, each
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


def _tabulate(graph: AnyGraph) -> _ForestTable:
    """The table of one oracle._choices walk. A forest of k trees has n - k
    instances, so forests with the same root map add to the same entries with
    one sign: their weights over den are summed first, then spread once."""
    n = graph.n
    forests = oracle._choices(graph)
    groups: dict[tuple[int, ...], int] = {}
    for _, root_of, w in forests:
        groups[root_of] = groups.get(root_of, 0) + w
    pairs = [(i, j) for i in range(n) for j in range(n)]
    coeffs = {p: [0] * n for p in pairs}
    signed = {p: [0] * n for p in pairs}
    by_roots: dict[frozenset[int], int] = {}
    by_count = [0] * (n + 1)
    for root_of, w in groups.items():
        roots = frozenset(root_of)
        k = len(roots)
        sw = -w if (n - k) % 2 else w
        by_roots[roots] = by_roots.get(roots, 0) + w
        by_count[k] += w
        for j, i in enumerate(root_of):
            coeffs[(i, j)][k - 1] += w
            signed[(i, j)][k - 1] += sw
    pair = {p: sum(ws) for p, ws in coeffs.items()}
    return _ForestTable(len(forests), oracle._den(graph), pair, coeffs, signed, by_roots, by_count)


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

    The oracle walks the forests once, into a table of integers over one den
    that every comparison with it cross-multiplies, and every determinant is
    forest_det's, once per lambda: det W at 1, det L at 0 and det(lambda*I + L)
    at EVAL_POINTS. One integer grid holds every cofactor polynomial of
    lambda*I + L, row i over scale // d_i, scale the product of L's row scales d,
    interpolated through the adjugates X(x) of L's scaled rows at the shifts
    0 ... n-1: node 1 is adj W and node 0 adj L, both kept over scale. Flipped to
    lambda*I - L it is the signed grid. Both grids are evaluated on integers
    against one run of _adjugates per denominator q of their shifts, on L's
    scaled rows times q (see _check_polys). Each other principal submatrix
    L minus phi that keeps at least 2 vertices is eliminated once, on L's integer
    rows, for its adjugate over scale; its entry (v, v), v after all of phi, is
    the minor det L minus (phi + v); only det L and the 1 of the empty matrix are
    not read there. matrix_tree_check, public, eliminates adj L once more.
    """
    twin = graph if isinstance(graph, Multidigraph) else to_bidirected(graph)
    _check_budget(twin, guard)
    n = graph.n
    lap = graph_matrix(graph)
    w = forest_matrix(lap)
    det_w, det_l, *dets = (forest_det(graph, lam) for lam in (1, 0, *EVAL_POINTS))
    table = _tabulate(graph)
    report = matrix_tree_check(graph, guard)
    rows, mults = _scaled_rows(graph)
    scale = prod(mults)
    polys, (x_l, *x_shifted) = _cofactor_grid(rows, mults)
    x_w = x_shifted[0] if x_shifted else x_l  # every adjugate of order 1 is [[1]]
    adj_w, adj_l = ([[e * dc for e, dc in zip(row, mults)] for row in x] for x in (x_w, x_l))  # over scale
    adjs = {(): adj_l}
    for size in range(1, n - 1):
        for phi in combinations(range(n), size):  # adj(L minus phi) * scale = X * diag(d) * scale / prod(d)
            kept = [v for v in range(n) if v not in phi]
            d = [mults[r] for r in kept]
            x = next(_adjugates([[rows[r][c] for c in kept] for r in kept], d, (0,)))
            f = scale // prod(d)
            adjs[phi] = [[e * dc * f for e, dc in zip(row, d)] for row in x]
    minors = {(): det_l * scale, tuple(range(n)): scale}
    for phi, sub in adjs.items():  # a v after all of phi has place v - k in L minus phi
        k = len(phi)
        minors.update(((*phi, v), sub[v - k][v - k]) for v in range(max(phi, default=-1) + 1, n))
    signed = [[_signed(coeffs, n) for coeffs in row] for row in polys]
    overs = [scale // d for d in mults]
    # the shifts x = sign * lambda of both checks, -1 and -2 shared; one run per denominator
    shifts = dict.fromkeys(Fraction(x) for x in (*EVAL_POINTS, *range(-1, -n - 2, -1)))
    refs = {}  # at x = p/q, adj D(qL + pI) = q**(n-1) * X(x), X(x) = adj D(L + x*I) as the grid
    for q in sorted({x.denominator for x in shifts}):
        xs = [x for x in shifts if x.denominator == q]
        refs.update(zip(xs, _adjugates([[q * e for e in row] for row in rows], mults, [x.numerator for x in xs])))
    return [
        _check_matrix_tree(report),
        _check_forest_det(det_w, table),
        _check_forest_cofactors(adj_w, scale, table),
        _check_row_partition(adj_w, scale, det_w),
        _check_accessibility(graph, w, det_w, table),
        _check_merge_invariance(graph, rows, mults, table),
        _check_contraction_minors(twin, minors, scale),
        _check_rooted_minors(n, minors, adjs, scale, table),
        _check_charpoly(graph, det_w, dets, minors, scale, table),
        _check_polys(
            "cofactor-polynomials", polys, 1, overs, EVAL_POINTS, refs, table.den, table.coeffs,
            f"coefficients match bucketed enumeration and evaluations at "
            f"{len(EVAL_POINTS)} points for all {n * n} pairs",
        ),
        _check_path_expansion(lap, adjs, minors, guard),
        # L's grid flipped to lambda*I - L, against adjugates of lambda*I - L at 1 ... n+1:
        # flipped back, none is a node 0 ... n-1 of L's grid, and n+1 points pin degree n-1
        _check_polys(
            "signed-cofactor-polynomials", signed, -1, overs, range(1, n + 2), refs, table.den, table.signed,
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


def _check_forest_det(det_w, table) -> CheckResult:
    return CheckResult(
        "forest-determinant",
        _equals(det_w, sum(table.by_count), table.den),
        detail=f"det W = {det_w} over {table.count} spanning forests",
    )


def _check_forest_cofactors(adj_w, scale, table) -> CheckResult:
    ok = all(adj_w[j][i] * table.den == t * scale for (i, j), t in table.pair.items())  # adj_w / scale vs t / den
    detail = f"checked {len(table.pair)} cofactors against filtered enumeration totals"
    return CheckResult("forest-cofactors", ok, detail=detail)


def _check_row_partition(adj_w, scale, det_w) -> CheckResult:
    ok = all(_equals(det_w, sum(row), scale) for row in adj_w)
    detail = "cofactors over all start vertices sum to det W for every target"
    return CheckResult("cofactor-row-partition", ok, detail=detail)


def _check_accessibility(graph, w, det_w, table) -> CheckResult:
    if det_w == 0:
        return CheckResult(
            "accessibility-matrix",
            True,
            skipped=True,
            detail="det W = 0, the accessibility matrix does not exist",
        )
    q = accessibility(graph).matrix
    rows, mults = _integer_rows(q.entries)  # Q's row r is rows[r] / mults[r], W's column c cols[c] / ds[c]
    cols, ds = _integer_rows(zip(*w.entries))
    units = [[m * d * (r == c) for c, d in enumerate(ds)] for r, m in enumerate(mults)]
    ok = [[sum(map(mul, row, col)) for col in cols] for row in rows] == units
    ok = ok and all(sum(row) == m for row, m in zip(rows, mults))
    over = det_w.numerator * table.den  # q_ij * det_w == pair[(j, i)] / den
    ok = ok and all(_equals(q[i, j], t * det_w.denominator, over) for (j, i), t in table.pair.items())
    if isinstance(graph, Multigraph):
        ok = ok and q.is_symmetric()
    return CheckResult(
        "accessibility-matrix",
        ok,
        detail="Q W = I, unit row sums, entries match enumeration ratios",
    )


def _check_merge_invariance(graph, rows, mults, table) -> CheckResult:
    merged = merge_parallel(graph)
    ok = _scaled_rows(merged) == (rows, mults)  # in lowest terms: equal exactly when the matrices are
    merged_table = _tabulate(merged)
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


def _check_contraction_minors(twin, minors, scale) -> CheckResult:
    ok = minors[()] == 0  # empty root set: no trees, and L is always singular
    scanned = 0
    for phi, minor in minors.items():
        if not phi:
            continue
        contracted, star = contract(twin, phi)
        total = sum(w for _, _, w in oracle._choices(contracted, star))
        ok = ok and minor * oracle._den(contracted) == total * scale  # minor / scale == total / den
        heads = [a.head for a in contracted.arcs]
        scanned += prod(heads.count(v) for v in range(contracted.n) if v != star)
    return CheckResult(
        "contraction-minors",
        ok,
        detail=f"det of L minus a root set equals the contracted graph's "
        f"diverging-tree weight for all {len(minors) - 1} nonempty sets "
        f"({scanned} parent choices scanned)",
    )


def _check_rooted_minors(n, minors, adjs, scale, table) -> CheckResult:
    by_roots, den = table.by_roots, table.den  # minor / scale == total / den
    ok = all(minor * den == by_roots.get(frozenset(phi), 0) * scale for phi, minor in minors.items())
    for phi, adj in adjs.items():  # entry (a, a) is the minor of phi and the a-th kept vertex
        kept = enumerate(v for v in range(n) if v not in phi)
        ok = ok and all(adj[a][a] * den == by_roots.get(frozenset((*phi, v)), 0) * scale for a, v in kept)
    return CheckResult(
        "rooted-minors",
        ok,
        detail="det of L minus any vertex set equals the weight of forests "
        "rooted exactly there",
    )


def _check_charpoly(graph, det_w, dets, minors, scale, table) -> CheckResult:
    poly = charpoly_forest_coeffs(graph)
    minor_sums = [0] * (graph.n + 1)  # over scale
    for phi, minor in minors.items():
        minor_sums[len(phi)] += minor
    ok = [c * scale for c in poly.coeffs] == minor_sums  # so there are n + 1, as in by_count
    ok = ok and all(_equals(c, t, table.den) for c, t in zip(poly.coeffs, table.by_count))
    ok = ok and poly.evaluate(1) == det_w
    ok = ok and all(poly.evaluate(x) == det for x, det in zip(EVAL_POINTS, dets))
    return CheckResult(
        "charpoly-forest-coefficients",
        ok,
        detail="coefficient k equals the total weight of k-tree forests "
        f"and the degree-k principal minor sum; evaluations at {len(EVAL_POINTS)} points",
    )


def _check_polys(name, grid, sign, overs, points, refs, den, column, detail) -> CheckResult:
    """Each polynomial (i, j) of lambda*I + sign*L in `grid`, integer coefficients
    over overs[i], against the totals over den, and at each lambda = p/q against
    refs[sign*lambda], the adjugate of D * (q*L + sign*p*I). The integer
    coefficients are those of sign**(n-1) * X_ji(sign*lambda), X(x) = adj D(L +
    x*I), so Horner's rule on the n of them gives H with sign**(n-1) * H ==
    q**(n-1) * X_ji(sign*lambda), that reference's entry (j, i)."""
    at = [(lam.numerator, lam.denominator, refs[sign * lam]) for lam in points]
    s = sign ** (len(grid) - 1)
    ok = True
    for i, (row, over) in enumerate(zip(grid, overs)):
        for j, coeffs in enumerate(row):
            ok = ok and [c * den for c in coeffs] == [t * over for t in column[(i, j)]]
            for p, q, x in at:
                h, qk = 0, 1
                for c in reversed(coeffs):
                    h, qk = h * p + c * qk, qk * q
                ok = ok and h * s == x[j][i]
    return CheckResult(name, ok, detail=detail)


def _check_path_expansion(lap, adjs, minors, guard) -> CheckResult:
    """Each off-diagonal cofactor of L minus phi, for every phi that leaves at
    least 2 vertices, against its path expansion. The companion digraph of L
    minus phi is L's restricted to the kept vertices, so the paths of L's
    companion are enumerated and weighed once per ordered pair: a path through
    phi is not one of L minus phi's and counts 0, and any other path P weighs
    its minor det(L minus phi minus P) = minors[phi + V(P)], over one scale with
    the entries, and its weight is over the companion's den."""
    n = lap.n
    companion = _companion(lap)
    den = oracle._den(companion)
    paths = {ij: oracle.enum_paths(companion, *ij, guard) for ij in permutations(range(n), 2)}
    weighed = {ij: oracle._path_weights(companion, ps) for ij, ps in paths.items()}
    by_set = {frozenset(vs): m for vs, m in minors.items()}
    ok, count = True, 0
    for phi, adj in adjs.items():
        kept = [v for v in range(n) if v not in phi]

        def minor(vs, phi=frozenset(phi)):
            return by_set[phi | vs] if phi.isdisjoint(vs) else 0

        for (a, i), (b, j) in permutations(enumerate(kept), 2):
            ok = ok and _path_sum(weighed[(i, j)], minor) == adj[b][a] * den
            count += 1
    return CheckResult(
        "path-expansion-cofactors",
        ok,
        detail=f"path expansion reproduced {count} off-diagonal cofactors of "
        "L and its principal submatrices",
    )
