"""The verify checklist: each check must fail when its library side or its
oracle side is perturbed, and the oracle table must match independent totals."""

import hashlib
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
    linalg,
    merge_parallel,
    oracle,
    run_all_checks,
    verify,
)
from helpers import (
    WEIGHT_POOL,
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


def perturb_grid(monkeypatch, change):
    """verify._cofactor_grid, L's one integer grid of cofactor polynomials, with
    change(grid) applied to the coefficient lists it returns."""
    original = verify._cofactor_grid

    def perturbed(rows, mults):
        grid, adjs = original(rows, mults)
        change(grid)
        return grid, adjs

    monkeypatch.setattr(verify, "_cofactor_grid", perturbed)


def perturb_node(monkeypatch, graph, node, entry, hits):
    """linalg._adjugates, with entry (r, c) of the integer adjugate it yields at
    shift `node` off by one in the grid's run only: that on L's scaled rows at
    the shifts 0 ... n - 1, which both the grid and the table read."""
    rows, mults = verify._scaled_rows(graph)
    original = linalg._adjugates

    def perturbed(*args):
        for x, adj in enumerate(original(*args)):
            if args == (rows, mults, range(graph.n)) and x == node:
                hits.append(args)
                adj[entry[0]][entry[1]] += 1
            yield adj

    monkeypatch.setattr(linalg, "_adjugates", perturbed)


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
        # verify takes both polynomial families from this one integer grid: L's,
        # and flipped, that of the characteristic matrix lambda*I - L. The
        # constant coefficient of one pair is off by one
        def change(grid):
            grid[1][2][0] += 1

        perturb_grid(monkeypatch, change)
        assert failing(graph) == {"cofactor-polynomials", "signed-cofactor-polynomials"}

    def test_signed_cofactor_poly(self, graph, monkeypatch):
        # the signed grid is L's flipped, untouched, but the adjugates it is
        # evaluated against become those of lambda*I + L, L's scaled rows at the
        # shifts 1 ... n + 1, instead of those of lambda*I - L at -1 ... -(n + 1)
        n = graph.n
        rows, mults = verify._scaled_rows(graph)
        plus = dict(zip(range(1, n + 2), linalg._adjugates(rows, mults, range(1, n + 2))))
        original = verify._check_polys

        def perturbed(name, grid, sign, overs, points, refs, *rest):
            if sign == -1:
                sign, refs = 1, plus
            return original(name, grid, sign, overs, points, refs, *rest)

        monkeypatch.setattr(verify, "_check_polys", perturbed)
        assert failing(graph) == {"signed-cofactor-polynomials"}

    @pytest.mark.parametrize("shift, failed", [
        (lambda n: F(1, 2), {"cofactor-polynomials"}),
        (lambda n: -(n + 1), {"signed-cofactor-polynomials"}),
        (lambda n: -2, {"cofactor-polynomials", "signed-cofactor-polynomials"}),
    ], ids=["plain", "signed", "shared"])
    def test_reference_adjugate_entry(self, graph, monkeypatch, shift, failed):
        # entry (0, 1) of the reference at the shift x = p/q, the adjugate of
        # the scaled rows of q*L + p*I from the run on L's scaled rows times q,
        # is off by one: x = 1/2 is lambda = 1/2 of the plain check only;
        # -(n + 1) is lambda = n + 1 of the signed check only; -2 is lambda = -2
        # of the plain check and lambda = 2 of the signed one, which share it
        x = F(shift(graph.n))
        rows, mults = verify._scaled_rows(graph)
        scaled = [[x.denominator * e for e in row] for row in rows]
        original, hits = verify._adjugates, []

        def perturbed(rs, ms, shifts):
            shifts = list(shifts)
            for p, adj in zip(shifts, original(rs, ms, shifts)):
                if (rs, ms) == (scaled, mults) and p == x.numerator:
                    hits.append(p)
                    adj[0][1] += 1
                yield adj

        monkeypatch.setattr(verify, "_adjugates", perturbed)
        assert failing(graph) == failed
        assert len(hits) == 1

    def test_trailing_zero_coefficient(self, graph, monkeypatch):
        # one polynomial of the grid gains a zero top coefficient: its values
        # are unchanged, only its length differs from the table's coefficients
        perturb_grid(monkeypatch, lambda grid: grid[1][2].append(0))
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

    def test_one_tree_weight(self, graph, monkeypatch):
        # the first tree of each walk from a root over the graph under test
        # weighs one more (one over den): matrix_tree_check's totals, read
        # from those walks; the contracted graphs' walks are left as they are
        def change(host, root, forests):
            if host is not graph or root is None:
                return forests
            (c, r, w), *rest = forests
            return [(c, r, w + 1), *rest]

        perturb_walk(monkeypatch, change)
        assert failing(graph) == {"matrix-tree-cofactors"}

    def test_doubled_elimination_shift(self, graph, monkeypatch):
        # every shift x of an elimination on scaled rows adds 2*x instead of
        # x to the diagonal: the grid's nodes, the polynomial references and
        # the forest polynomial move, and each meets the enumeration's
        # coefficients; node 1, adj W, becomes adj(2*I + L)
        original = linalg._forward

        def doubled(rows, mults, order, symmetric, steps, shift=0):
            return original(rows, mults, order, symmetric, steps, 2 * shift)

        monkeypatch.setattr(linalg, "_forward", doubled)
        assert failing(graph) == {"cofactor-polynomials", "signed-cofactor-polynomials",
                                  "charpoly-forest-coefficients", "forest-cofactors", "cofactor-row-partition"}

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
        ((), (0, 0), {"rooted-minors", "contraction-minors", "charpoly-forest-coefficients",
                      "cofactor-polynomials", "signed-cofactor-polynomials"}),
        ((), (0, 1), {"path-expansion-cofactors", "cofactor-polynomials", "signed-cofactor-polynomials"}),
        (None, (0, 0), {"matrix-tree-cofactors"}),
        (None, (0, 1), {"matrix-tree-cofactors"}),
    ], ids=["diagonal", "off-diagonal", "unread-diagonal", "L-diagonal", "L-off-diagonal",
            "L-public-diagonal", "L-public-off-diagonal"])
    def test_submatrix_adjugate_entry(self, graph, monkeypatch, deleted, entry, failed):
        # one entry of adj(L minus the deleted vertices) is off by one. The
        # diagonal entry (1, 1) of adj(L minus {1}), at vertex 2, is the minor
        # of L minus {1, 2}, read from there only; its entry (0, 0), at vertex
        # 0, is the minor of L minus {0, 1}, read from adj(L minus {0}), and
        # only rooted-minors compares every diagonal entry. An off-diagonal
        # entry is a cofactor only path expansion checks. adj L (deleted ())
        # is node 0 of the grid's run, so the cofactor polynomials interpolated
        # through it fail too; its entry (0, 0) is the minor of L minus {0}.
        # The SquareMatrix adj L that matrix_tree_check takes (deleted None)
        # is another elimination, read by matrix-tree-cofactors only. Every
        # other is the integer adjugate X of L's scaled rows with the deleted
        # rows and columns left out, and X is perturbed
        lap, hits = graph_matrix(graph), []
        if deleted is None:
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
        elif not deleted:
            perturb_node(monkeypatch, graph, 0, entry, hits)
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

    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])
    def test_node_one_adjugate_entry(self, graph, monkeypatch, entry):
        # node 1 of the grid's run is adj W, which forest-cofactors and
        # cofactor-row-partition read; the polynomials interpolated through it fail too
        hits = []
        perturb_node(monkeypatch, graph, 1, entry, hits)
        assert failing(graph) == {"forest-cofactors", "cofactor-row-partition",
                                  "cofactor-polynomials", "signed-cofactor-polynomials"}
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


class TestPinnedOutputs:
    # sha256 over the repr of every CheckResult, detail included, of
    # run_all_checks on seeded graphs of both kinds (n = 1 ... 6, signed and
    # zero weights, four with det W = 0), recorded before the cofactor grid
    # became integers: a changed name, verdict, skip or detail byte changes it
    DIGEST = "7ef01719e9e872f63f176de4dc0dc0bc23887a40be2e15ad3097b6ee5e87d1a0"

    def test_check_results_on_seeded_graphs(self):
        rng = random.Random(29)
        pool = WEIGHT_POOL + (F(0),)
        graphs = [Multigraph(1), Multidigraph(1)]
        for k in range(40):  # undirected: at most 6 edges, 12 twin arcs, within the default guard
            make = random_multidigraph if k % 2 else random_multigraph
            graphs.append(make(rng, 2, 6, 8 if k % 2 else 6, pool))
        digest = hashlib.sha256()
        for g in graphs:
            digest.update(repr(run_all_checks(g)).encode())
        assert digest.hexdigest() == self.DIGEST


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
        # minors are on those adjugates' diagonals, and adj L is node 0 of the
        # grid's run. No submatrix is built as a SquareMatrix
        n = graph.n
        lap = graph_matrix(graph)
        rows, mults = verify._scaled_rows(graph)
        built, adjugated = spy(SquareMatrix, "delete_rows_cols"), spy(SquareMatrix, "adjugate")
        adjugates, runs = spy(verify, "_adjugates"), spy(linalg, "_adjugates")
        run_all_checks(graph)
        assert built == []
        # only matrix_tree_check's, on L: adj W and the table's adj L are nodes
        # 1 and 0 of the grid's one run, on L's scaled rows at 0 ... n - 1
        assert [call["self"] for call in adjugated] == [lap]
        grid_runs = [c for c in runs if (c["rows"], c["mults"]) == (rows, mults)]
        assert [tuple(c["shifts"]) for c in grid_runs] == [(0,), tuple(range(n))]  # matrix_tree_check's, the grid's
        expected = []
        for size in range(1, n - 1):
            for phi in combinations(range(n), size):
                kept = [v for v in range(n) if v not in phi]
                expected.append(([[rows[r][c] for c in kept] for r in kept], [mults[r] for r in kept], (0,)))
        subs = [(c["rows"], c["mults"], tuple(c["shifts"])) for c in adjugates if len(c["rows"]) < n]
        assert subs == expected
        assert len(subs) == 2**n - n - 2 == 10

    def test_polynomial_checks_evaluate_in_integers(self, graph, spy):
        # one adjugate run on L's scaled rows times q per denominator q of the
        # two checks' shifts: q = 1 at -1 ... -(n + 1), where lambda = -1 and -2
        # of the plain check are the shifts of lambda = 1 and 2 of the signed
        # one, and q = 2 at 1 and -3 (lambda = 1/2 and -3/2). verify scales no
        # rows at a shift, Polynomial.evaluate serves the forest polynomial's
        # evaluations only, and both checks get grids of integers
        n = graph.n
        rows, mults = verify._scaled_rows(graph)
        adjugates, evaluated = spy(verify, "_adjugates"), spy(Polynomial, "evaluate")
        checked, scaled = spy(verify, "_check_polys"), spy(verify, "_scaled_rows")
        run_all_checks(graph)
        assert [c["name"] for c in checked] == ["cofactor-polynomials", "signed-cofactor-polynomials"]
        for call in checked:
            assert len(call["grid"]) == n and all(len(row) == n for row in call["grid"])
            assert {type(c) for row in call["grid"] for coeffs in row for c in coeffs} == {int}
        references = [(c["rows"], c["mults"], list(c["shifts"])) for c in adjugates if len(c["rows"]) == n]
        assert references == [
            (rows, mults, list(range(-1, -n - 2, -1))),
            ([[2 * e for e in row] for row in rows], mults, [1, -3]),
        ]
        assert [c["lam"] for c in scaled] == [0, 0]  # L's, and the merged graph's
        assert sorted(call["x"] for call in evaluated) == sorted((1, *verify.EVAL_POINTS))

    def test_determinants_and_cofactor_grids(self, graph, spy):
        # every determinant is forest_det's, once per lambda: det W, det L and
        # the charpoly evaluations; L's one integer grid of cofactor
        # polynomials, on the scaled rows of L, serves both polynomial checks
        dets, grids = spy(SquareMatrix, "det"), spy(verify, "_cofactor_grid")
        lams = spy(verify, "forest_det")
        run_all_checks(graph)
        assert dets == [] and [(c["rows"], c["mults"]) for c in grids] == [verify._scaled_rows(graph)]
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
        def grid(m):
            return lambda: linalg._cofactor_grid(*linalg._integer_rows(m.entries))

        assert eliminations(grid(regular)) == [[]] * n
        # at x < n - 1 column x of the stage is zero; at x = n - 1 the last pivot is
        assert eliminations(grid(stair)) == [["singular"], []] * (n - 1) + [[]]

    def test_merge_invariance_counts_merged_forests(self, graph):
        merged = merge_parallel(graph)
        enum = enum_diverging_forests if isinstance(graph, Multidigraph) else enum_rooted_forests
        text = detail(graph, "parallel-merge-invariance")
        assert re.search(rf"\b{len(enum(merged))} forests enumerated for the merged graph", text)
