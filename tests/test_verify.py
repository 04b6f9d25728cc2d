"""The verify checklist: each check must fail when its library side or its
oracle side is perturbed, and the oracle table must match independent totals."""

import random
import re
from fractions import Fraction
from itertools import combinations
from math import prod

import pytest

from forestmatrix import (
    AccessibilityMatrix,
    GraphValidationError,
    Multidigraph,
    Multigraph,
    Polynomial,
    SquareMatrix,
    enum_diverging_forests,
    enum_rooted_forests,
    forest_matrix,
    graph_matrix,
    merge_parallel,
    oracle,
    run_all_checks,
    verify,
)
from helpers import (
    pair_weight_table,
    random_multidigraph,
    random_multigraph,
)

F = Fraction

# Checks whose oracle side is read from the table's totals by root map;
# forest-determinant reads only its grand total, which a wrong root keeps.
TABLE_CHECKS = {
    "forest-cofactors",
    "accessibility-matrix",
    "parallel-merge-invariance",
    "rooted-minors",
    "charpoly-forest-coefficients",
    "cofactor-polynomials",
    "signed-cofactor-polynomials",
}

GRAPHS = {
    "undirected": Multigraph(4, ((0, 1, 1), (1, 2, F(1, 2)), (2, 3, 2), (0, 1, 3), (0, 2, 1))),
    "directed": Multidigraph(4, ((0, 1, 1), (1, 2, 2), (2, 3, F(1, 2)), (3, 0, 1), (0, 1, 2))),
}

# The parallel halves merge to 1, so the merged graph's forest table is over
# den = 3**2 = 9 while the graph's is over 6**2 = 36.
HALVES = ((0, 1, F(1, 2)), (0, 1, F(1, 2)), (1, 2, F(1, 3)))
MERGE_GRAPHS = {"undirected": Multigraph(3, HALVES), "directed": Multidigraph(3, HALVES)}


def failing(graph) -> set[str]:
    return {c.name for c in run_all_checks(graph) if not c.passed}


def detail(graph, name: str) -> str:
    (check,) = [c for c in run_all_checks(graph) if c.name == name]
    return check.detail


def perturb_pair(fn, pair=(1, 2)):
    """fn, except that coefficient 0 of the polynomial for one (i, j) pair of its grid is off by one."""

    def perturbed(owner):
        grid = fn(owner)
        i, j = pair
        poly = grid[i][j]
        grid[i][j] = Polynomial((poly.coeffs[0] + 1,) + poly.coeffs[1:])
        return grid

    return perturbed


def perturb_walk(monkeypatch, change):
    """oracle._choices, verify's one forest walk, with change(host, root,
    forests) applied to the (chosen, root_of, weight) triples it returns."""
    original = oracle._choices

    def perturbed(host, root=None):
        return change(host, root, original(host, root))

    monkeypatch.setattr(oracle, "_choices", perturbed)


@pytest.fixture(params=sorted(GRAPHS))
def graph(request):
    g = GRAPHS[request.param]
    assert failing(g) == set()
    return g


@pytest.fixture(params=sorted(MERGE_GRAPHS))
def halves(request):
    return MERGE_GRAPHS[request.param]


class TestMutations:
    def test_cofactor_poly(self, graph, monkeypatch):
        # verify takes both polynomial families from this one grid: L's, and
        # flipped, that of the characteristic matrix lambda*I - L
        monkeypatch.setattr(
            SquareMatrix, "_cofactor_polys", perturb_pair(SquareMatrix._cofactor_polys)
        )
        assert failing(graph) == {"cofactor-polynomials", "signed-cofactor-polynomials"}

    def test_signed_cofactor_poly(self, graph, monkeypatch):
        # the signed grid is L's flipped, untouched, but the adjugates it is
        # evaluated against become those of lambda*I + L instead of lambda*I - L
        original = verify._check_polys

        def perturbed(name, grid, host, sign, *rest):
            return original(name, grid, host, 1, *rest)

        monkeypatch.setattr(verify, "_check_polys", perturbed)
        assert failing(graph) == {"signed-cofactor-polynomials"}

    @pytest.mark.parametrize("shift, failed", [
        (lambda n: F(1, 2), {"cofactor-polynomials"}),
        (lambda n: -(n + 1), {"signed-cofactor-polynomials"}),
        (lambda n: -2, {"cofactor-polynomials", "signed-cofactor-polynomials"}),
    ], ids=["plain", "signed", "shared"])
    def test_reference_adjugate_entry(self, graph, monkeypatch, shift, failed):
        # entry (0, 1) of the adjugate of the scaled rows of shift*I + L, which
        # the polynomial checks evaluate against, is off by one: shift = 1/2 is
        # lambda = 1/2 of the plain check only; -(n + 1) is lambda = n + 1 of
        # the signed check only; -2 is lambda = -2 of the plain check and
        # lambda = 2 of the signed one, which share one elimination
        rows = verify._scaled_rows(graph, shift(graph.n))
        original, hits = verify._adjugates, []

        def perturbed(*args):
            for x in original(*args):
                if args[:2] == rows:
                    hits.append(args)
                    x[0][1] += 1
                yield x

        monkeypatch.setattr(verify, "_adjugates", perturbed)
        assert failing(graph) == failed
        assert len(hits) == 1

    def test_trailing_zero_coefficient(self, graph, monkeypatch):
        # one polynomial of the grid gains a zero top coefficient: its values
        # are unchanged, only its length differs from the table's coefficients
        original = SquareMatrix._cofactor_polys

        def perturbed(owner):
            grid = original(owner)
            grid[1][2] = Polynomial(grid[1][2].coeffs + (0,))
            return grid

        monkeypatch.setattr(SquareMatrix, "_cofactor_polys", perturbed)
        assert failing(graph) == {"cofactor-polynomials", "signed-cofactor-polynomials"}

    def test_charpoly_forest_coeffs(self, graph, monkeypatch):
        original = verify.charpoly_forest_coeffs

        def perturbed(g):
            c = original(g).coeffs
            return Polynomial(c[:1] + (c[1] + 1,) + c[2:])

        monkeypatch.setattr(verify, "charpoly_forest_coeffs", perturbed)
        assert failing(graph) == {"charpoly-forest-coefficients"}

    def test_one_forest_weight(self, graph, monkeypatch):
        # the forests made of instance 0 alone weigh one more (one over den)
        # than they should, but only in the walk over the graph under test (not
        # in those over the merged or contracted graphs, nor in its trees)
        def change(host, root, forests):
            if host is not graph or root is not None:
                return forests
            shift = isinstance(host, Multigraph)  # a graph's edge e is twin arcs 2e and 2e + 1
            return [(c, r, w + ({i >> shift for i in c if i is not None} == {0})) for c, r, w in forests]

        perturb_walk(monkeypatch, change)
        # forest-determinant reads its total from the same table
        assert failing(graph) == TABLE_CHECKS | {"forest-determinant"}

    def test_one_root_of_one_forest(self, graph, monkeypatch):
        # in the forest without instances vertex 1 is reported in vertex 0's
        # tree: its weight moves to another root set and tree count, but the
        # total over all forests, det W's, stays
        def change(host, root, forests):
            if host is not graph or root is not None:
                return forests
            return [(c, (0, 0, *r[2:]) if r == tuple(range(host.n)) else r, w) for c, r, w in forests]

        perturb_walk(monkeypatch, change)
        assert failing(graph) == TABLE_CHECKS

    def test_one_contracted_tree_weight(self, graph, monkeypatch):
        # one tree of the first contracted graph, that of the root set {0},
        # weighs one more (one over its den); every contracted graph is walked
        contracted = []

        def change(host, root, forests):
            if host is graph or root is None:
                return forests
            contracted.append(host)
            if len(contracted) > 1:
                return forests
            (c, r, w), *rest = forests
            return [(c, r, w + 1), *rest]

        perturb_walk(monkeypatch, change)
        assert failing(graph) == {"contraction-minors"}
        assert len(contracted) == 2**graph.n - 1

    def test_one_path_dropped(self, graph, monkeypatch):
        # the shortest 0 -> 1 path of L's companion digraph goes missing; on
        # the whole of L its term (an arc weight times a positive minor) is nonzero
        original = oracle.enum_paths

        def perturbed(digraph, start, goal, guard):
            paths = original(digraph, start, goal, guard)
            return paths[1:] if (start, goal) == (0, 1) else paths

        monkeypatch.setattr(oracle, "enum_paths", perturbed)
        assert failing(graph) == {"path-expansion-cofactors"}

    def test_one_path_weight(self, graph, monkeypatch):
        # the shortest 0 -> 1 path of L's companion digraph weighs one more
        # (one over the companion's den); on the whole of L its minor is positive
        original, hits = oracle._path_weights, []

        def perturbed(companion, paths):
            weighed = original(companion, paths)
            if paths and (paths[0].vertices[0], paths[0].vertices[-1]) == (0, 1):
                hits.append(paths)
                (vs, w), *rest = weighed
                return [(vs, w + 1), *rest]
            return weighed

        monkeypatch.setattr(oracle, "_path_weights", perturbed)
        assert failing(graph) == {"path-expansion-cofactors"}
        assert len(hits) == 1

    def test_one_contracted_arc_dropped(self, graph, monkeypatch):
        # the digraph contracted from the root set {0}, the twin itself, loses
        # its first arc 0 -> 1, which some positive tree diverging from 0 uses
        original, hits = verify.contract, []

        def perturbed(digraph, vertices):
            contracted, star = original(digraph, vertices)
            if tuple(vertices) != (0,):
                return contracted, star
            hits.append(vertices)
            return Multidigraph(contracted.n, contracted.arcs[1:]), star

        monkeypatch.setattr(verify, "contract", perturbed)
        assert failing(graph) == {"contraction-minors"}
        assert len(hits) == 1

    def test_one_accessibility_entry(self, graph, monkeypatch):
        # entry (0, 1) of Q is off by one, which breaks Q W = I
        original = verify.accessibility

        def perturbed(g, lam=1):
            rows = [list(row) for row in original(g, lam).matrix.entries]
            rows[0][1] += 1
            return AccessibilityMatrix(SquareMatrix(tuple(map(tuple, rows))))

        monkeypatch.setattr(verify, "accessibility", perturbed)
        assert failing(graph) == {"accessibility-matrix"}

    @pytest.mark.parametrize("deleted, entry, failed", [
        ((1,), (1, 1), {"rooted-minors", "contraction-minors", "charpoly-forest-coefficients",
                        "path-expansion-cofactors"}),
        ((1,), (0, 1), {"path-expansion-cofactors"}),
        ((1,), (0, 0), {"rooted-minors"}),
        ((), (0, 0), {"matrix-tree-cofactors", "rooted-minors", "contraction-minors",
                      "charpoly-forest-coefficients"}),
        ((), (0, 1), {"matrix-tree-cofactors", "path-expansion-cofactors"}),
    ], ids=["diagonal", "off-diagonal", "unread-diagonal", "L-diagonal", "L-off-diagonal"])
    def test_submatrix_adjugate_entry(self, graph, monkeypatch, deleted, entry, failed):
        # one entry of adj(L minus the deleted vertices) is off by one. The
        # diagonal entry (1, 1) of adj(L minus {1}), at vertex 2, is the minor
        # of L minus {1, 2}, read from there only; its entry (0, 0), at vertex
        # 0, is the minor of L minus {0, 1}, read from adj(L minus {0}), and
        # only rooted-minors compares every diagonal entry. An off-diagonal
        # entry is a cofactor only path expansion checks. adj L is the
        # SquareMatrix matrix_tree_check takes: its entry (0, 0) is the minor
        # of L minus {0}. Every other is the integer adjugate X of L's scaled
        # rows with the deleted rows and columns left out, and X is perturbed
        lap, hits = graph_matrix(graph), []
        if not deleted:
            original = SquareMatrix.adjugate

            def perturbed(self):
                adj = original(self)
                if self != lap:
                    return adj
                hits.append(self)
                rows = [list(row) for row in adj.entries]
                rows[entry[0]][entry[1]] += 1
                return SquareMatrix(tuple(map(tuple, rows)))

            monkeypatch.setattr(SquareMatrix, "adjugate", perturbed)
        else:
            rows, mults = verify._scaled_rows(graph)
            kept = [v for v in range(graph.n) if v not in deleted]
            sub = ([[rows[r][c] for c in kept] for r in kept], [mults[r] for r in kept])
            original = verify._adjugates

            def perturbed(*args):
                for x in original(*args):
                    if args[:2] == sub:
                        hits.append(args)
                        x[entry[0]][entry[1]] += 1
                    yield x

            monkeypatch.setattr(verify, "_adjugates", perturbed)
        assert failing(graph) == failed
        assert len(hits) == 1

    @pytest.mark.parametrize("lam, failed", [
        (1, {"forest-determinant", "cofactor-row-partition", "accessibility-matrix",
             "charpoly-forest-coefficients"}),
        (0, {"rooted-minors", "contraction-minors", "charpoly-forest-coefficients"}),
        (-1, {"charpoly-forest-coefficients"}),
        (F(1, 2), {"charpoly-forest-coefficients"}),
    ], ids=["det-W", "det-L", "minus-1", "half"])
    def test_forest_det(self, graph, monkeypatch, lam, failed):
        # verify takes every determinant from forest_det, once per lambda: det
        # W at 1, det L (the empty root set's minor) at 0, and the values the
        # forest polynomial is evaluated against at EVAL_POINTS
        original = verify.forest_det

        def perturbed(g, x=1):
            value = original(g, x)
            return value + 1 if x == lam else value

        monkeypatch.setattr(verify, "forest_det", perturbed)
        assert failing(graph) == failed

    @pytest.mark.parametrize("field", ["coeffs", "signed", "by_roots", "by_count"])
    @pytest.mark.parametrize("graph", [*GRAPHS.values(), *MERGE_GRAPHS.values()],
                             ids=[*GRAPHS, *(f"halves-{kind}" for kind in MERGE_GRAPHS)])
    def test_merged_table_field(self, graph, monkeypatch, field):
        # one filtered total of the merged graph is off by one; the merge check
        # compares every total, not only the pair table, also when the merged
        # graph's table is over another den
        original = verify._tabulate

        def bump(x):
            return [x[0] + 1, *x[1:]] if isinstance(x, list) else x + 1

        def perturbed(host):
            table = original(host)
            if host is graph:
                return table
            totals = getattr(table, field)
            if isinstance(totals, dict):
                key = next(iter(totals))
                totals = {**totals, key: bump(totals[key])}
            else:
                totals = bump(totals)
            return table._replace(**{field: totals})

        monkeypatch.setattr(verify, "_tabulate", perturbed)
        assert failing(graph) == {"parallel-merge-invariance"}


class TestMergeAcrossDenominators:
    def test_tables_over_different_denominators(self, halves):
        dens = [verify._tabulate(g).den for g in (halves, merge_parallel(halves))]
        assert dens == [36, 9]

    def test_all_checks_pass(self, halves):
        results = run_all_checks(halves)
        assert len(results) == 12
        assert failing(halves) == set()


class TestEmptyGraph:
    @pytest.mark.parametrize("kind", [Multigraph, Multidigraph])
    def test_no_vertices_is_a_validation_error(self, kind):
        with pytest.raises(GraphValidationError, match="at least one vertex"):
            run_all_checks(kind(0))


class TestOneEnumeration:
    def test_forests_enumerated_for_the_graph_and_the_merged_graph_only(self, graph, monkeypatch):
        # every forest walk, through the public enumerations too, is oracle._choices
        # without a root; the walks with one list the trees of one root
        hosts = []

        def counted(host, root, forests):
            if root is None:
                hosts.append(host)
            return forests

        perturb_walk(monkeypatch, counted)
        run_all_checks(graph)
        assert hosts == [graph, merge_parallel(graph)]

    def test_table_matches_independent_pair_totals(self):
        rng = random.Random(12)
        for _ in range(40):
            g = random_multigraph(rng, 2, 5, 6) if rng.random() < 0.5 else random_multidigraph(rng, 2, 5, 8)
            forests = (enum_diverging_forests if isinstance(g, Multidigraph) else enum_rooted_forests)(g)
            table = verify._tabulate(g)
            expected = pair_weight_table(g, forests)
            for i in range(g.n):
                for j in range(g.n):
                    assert Fraction(table.pair[(i, j)], table.den) == expected[i][j]
                    assert Fraction(sum(table.coeffs[(i, j)]), table.den) == expected[i][j]
            assert sum(table.by_count) == sum(table.by_roots.values())
            assert table.count == len(forests)


class TestWorkCounts:
    def test_contraction_minors_counts_parent_choices(self, graph):
        # contracting phi keeps every arc into a vertex outside phi, so each
        # contracted graph offers the product of those vertices' in-degrees
        n = graph.n
        if isinstance(graph, Multidigraph):
            heads = [a.head for a in graph.arcs]
        else:
            heads = [v for e in graph.edges for v in (e.u, e.v)]
        expected = 0
        for size in range(1, n + 1):
            for phi in combinations(range(n), size):
                expected += prod(heads.count(v) for v in range(n) if v not in phi)
        text = detail(graph, "contraction-minors")
        assert f"({expected} parent choices scanned)" in text

    def test_each_submatrix_keeping_two_vertices_built_once(self, graph, spy):
        # one integer adjugate per nonempty subset phi that keeps at least 2
        # vertices, of L's scaled rows with phi deleted: the other principal
        # minors are on those adjugates' diagonals, and adj L is the one
        # matrix_tree_check takes. No submatrix is built as a SquareMatrix
        n = graph.n
        lap = graph_matrix(graph)
        rows, mults = verify._scaled_rows(graph)
        built, adjugated = spy(SquareMatrix, "delete_rows_cols"), spy(SquareMatrix, "adjugate")
        adjugates = spy(verify, "_adjugates")
        run_all_checks(graph)
        assert built == []
        # W's and L's: the polynomial checks and the submatrices take theirs
        # from the scaled rows, not from SquareMatrix
        assert [call["self"] for call in adjugated] == [forest_matrix(lap), lap]
        expected = []
        for size in range(1, n - 1):
            for phi in combinations(range(n), size):
                kept = [v for v in range(n) if v not in phi]
                expected.append(([[rows[r][c] for c in kept] for r in kept], [mults[r] for r in kept], (0,)))
        subs = [(c["rows"], c["mults"], tuple(c["shifts"])) for c in adjugates if len(c["rows"]) < n]
        assert subs == expected
        assert len(subs) == 2**n - n - 2 == 10

    def test_polynomial_checks_evaluate_in_integers(self, graph, spy):
        # one adjugate of the scaled rows per distinct shift of the two checks:
        # lambda = -1 and -2 of the plain check are the shifts of lambda = 1
        # and 2 of the signed one. Polynomial.evaluate serves the forest
        # polynomial's evaluations only
        n = graph.n
        adjugates, evaluated = spy(verify, "_adjugates"), spy(Polynomial, "evaluate")
        run_all_checks(graph)
        shifts = [*verify.EVAL_POINTS, *range(-3, -n - 2, -1)]
        assert len(shifts) == len(verify.EVAL_POINTS) + n + 1 - 2
        references = [(c["rows"], c["mults"], tuple(c["shifts"])) for c in adjugates if len(c["rows"]) == n]
        assert references == [(*verify._scaled_rows(graph, x), (0,)) for x in shifts]
        assert sorted(call["x"] for call in evaluated) == sorted((1, *verify.EVAL_POINTS))

    def test_determinants_and_cofactor_grids(self, graph, spy):
        # every determinant is forest_det's, once per lambda: det W, det L and
        # the charpoly evaluations; L's grid of cofactor polynomials serves
        # both polynomial checks
        dets, grids = spy(SquareMatrix, "det"), spy(SquareMatrix, "_cofactor_polys")
        lams = spy(verify, "forest_det")
        run_all_checks(graph)
        assert dets == [] and len(grids) == 1
        assert sorted(call["lam"] for call in lams) == sorted((1, 0, *verify.EVAL_POINTS))

    def test_paths_enumerated_once_on_one_companion(self, graph, spy):
        # the companion digraph of L minus phi is L's restricted to the kept
        # vertices, so one digraph and one enumeration per ordered pair serve
        # every phi
        companions, paths = spy(verify, "_companion"), spy(oracle, "enum_paths")
        run_all_checks(graph)
        n = graph.n
        assert [call["matrix"] for call in companions] == [graph_matrix(graph)]
        assert sorted((c["start"], c["goal"]) for c in paths) == [(i, j) for i in range(n) for j in range(n) if i != j]

    @pytest.mark.parametrize("n", [3, 5])
    def test_eliminations_per_adjugate(self, routes, n):
        # one forward elimination per adjugate or inverse, singular or not, and
        # one per shift for the grid of cofactor polynomials; entry-by-entry
        # minors would take n**2 each. A zero pivot restarts a symmetric run
        # or swaps rows within its elimination. A singular shift either ends
        # its run with det 0 at the last diagonal entry, or stops at a zero
        # column and takes one retry with that column pivoted last
        def eliminations(method):
            routes.clear()
            method()
            return [sorted(route) for route in routes]

        regular = forest_matrix(SquareMatrix(((1,) * n,) * n), n)
        lap = graph_matrix(Multigraph(n, tuple((v, v + 1, 1) for v in range(n - 1))))
        stair = SquareMatrix(tuple(tuple(-r if r == c else int(c > r) for c in range(n)) for r in range(n)))
        hollow = SquareMatrix(tuple(tuple(int(r != c) for c in range(n)) for r in range(n)))  # det = (n - 1) * (-1)**(n - 1)
        assert eliminations(regular.adjugate) == eliminations(regular.inverse) == [[]]
        assert eliminations(hollow.inverse) == [["restart", "swap"]]
        assert eliminations(lap.adjugate) == [[]]  # det 0 at the last pivot
        assert eliminations(stair.adjugate) == [["singular"], []]  # column 0 is zero
        assert eliminations(regular._cofactor_polys) == [[]] * n
        # at x < n - 1 column x of the stage is zero; at x = n - 1 the last pivot is
        assert eliminations(stair._cofactor_polys) == [["singular"], []] * (n - 1) + [[]]

    def test_merge_invariance_counts_merged_forests(self, graph):
        merged = merge_parallel(graph)
        enum = enum_diverging_forests if isinstance(graph, Multidigraph) else enum_rooted_forests
        text = detail(graph, "parallel-merge-invariance")
        assert re.search(rf"\b{len(enum(merged))} forests enumerated for the merged graph", text)
