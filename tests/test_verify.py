"""The verify checklist: each check must fail when its library side or its
oracle side is perturbed, and the oracle table must match independent totals."""

import random
import re
from fractions import Fraction
from itertools import combinations
from math import prod

import pytest

from forestmatrix import (
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

# Checks whose oracle side is read from the table built over the forests.
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


@pytest.fixture(params=sorted(GRAPHS))
def graph(request):
    g = GRAPHS[request.param]
    assert failing(g) == set()
    return g


class TestMutations:
    def test_cofactor_poly(self, graph, monkeypatch):
        # verify takes both polynomial families from this one grid, of L and of -L
        monkeypatch.setattr(
            SquareMatrix, "_cofactor_polys", perturb_pair(SquareMatrix._cofactor_polys)
        )
        assert failing(graph) == {"cofactor-polynomials", "signed-cofactor-polynomials"}

    def test_signed_cofactor_poly(self, graph, monkeypatch):
        # the signed route takes the polynomials of L instead of -L; they agree
        # with L's own adjugates, so only the arc-parity coefficients catch it
        monkeypatch.setattr(SquareMatrix, "__neg__", lambda self: self)
        assert failing(graph) == {"signed-cofactor-polynomials"}

    def test_charpoly_forest_coeffs(self, graph, monkeypatch):
        original = verify.charpoly_forest_coeffs

        def perturbed(g):
            c = original(g).coeffs
            return Polynomial(c[:1] + (c[1] + 1,) + c[2:])

        monkeypatch.setattr(verify, "charpoly_forest_coeffs", perturbed)
        assert failing(graph) == {"charpoly-forest-coefficients"}

    def test_one_forest_weight(self, graph, monkeypatch):
        # the forest made of instance 0 alone weighs one more than it should,
        # but only in the graph under test (not in the merged or contracted graphs)
        original = oracle.weight_of

        def perturbed(instances, host):
            instances = frozenset(instances)
            w = original(instances, host)
            return w + 1 if host is graph and instances == frozenset({0}) else w

        monkeypatch.setattr(oracle, "weight_of", perturbed)
        # forest-determinant sums the same forests directly, not through the table
        assert failing(graph) == TABLE_CHECKS | {"forest-determinant"}

    def test_one_path_dropped(self, graph, monkeypatch):
        # the shortest 0 -> 1 path of L's companion digraph goes missing; on
        # the whole of L its term (an arc weight times a positive minor) is nonzero
        original = oracle.enum_paths

        def perturbed(digraph, start, goal, guard):
            paths = original(digraph, start, goal, guard)
            return paths[1:] if (start, goal) == (0, 1) else paths

        monkeypatch.setattr(oracle, "enum_paths", perturbed)
        assert failing(graph) == {"path-expansion-cofactors"}

    @pytest.mark.parametrize("field", ["coeffs", "signed", "by_roots", "by_count"])
    def test_merged_table_field(self, graph, monkeypatch, field):
        # one filtered total of the merged graph is off by one; the merge check
        # compares every total, not only the pair table
        original = verify._tabulate

        def bump(x):
            return [x[0] + 1, *x[1:]] if isinstance(x, list) else x + 1

        def perturbed(host, forests):
            table = original(host, forests)
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


class TestEmptyGraph:
    @pytest.mark.parametrize("kind", [Multigraph, Multidigraph])
    def test_no_vertices_is_a_validation_error(self, kind):
        with pytest.raises(GraphValidationError, match="at least one vertex"):
            run_all_checks(kind(0))


class TestOneEnumeration:
    def test_forests_enumerated_for_the_graph_and_the_merged_graph_only(self, graph, monkeypatch):
        hosts = []
        for name in ("enum_rooted_forests", "enum_diverging_forests"):
            original = getattr(oracle, name)

            def counted(g, guard, _original=original):
                hosts.append(g)
                return _original(g, guard)

            monkeypatch.setattr(oracle, name, counted)
        run_all_checks(graph)
        assert hosts == [graph, merge_parallel(graph)]

    def test_table_matches_independent_pair_totals(self):
        rng = random.Random(12)
        for _ in range(40):
            g = random_multigraph(rng, 2, 5, 6) if rng.random() < 0.5 else random_multidigraph(rng, 2, 5, 8)
            forests = verify._enum_forests(g, oracle.DEFAULT_GUARD)
            table = verify._tabulate(g, forests)
            expected = pair_weight_table(g, forests)
            for i in range(g.n):
                for j in range(g.n):
                    assert table.pair[(i, j)] == expected[i][j]
                    assert sum(table.coeffs[(i, j)]) == expected[i][j]
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

    def test_each_submatrix_built_once(self, graph, monkeypatch):
        # one per subset: path expansion takes its submatrices and minors from
        # the table the principal minors are taken from
        n = graph.n
        built = []
        original = SquareMatrix.delete_rows_cols

        def counted(self, indices):
            built.append(indices)
            return original(self, indices)

        monkeypatch.setattr(SquareMatrix, "delete_rows_cols", counted)
        run_all_checks(graph)
        assert len(built) == 2**n == 16
        assert len(set(built)) == len(built)

    def test_paths_enumerated_once_on_one_companion(self, graph, monkeypatch):
        # the companion digraph of L minus phi is L's restricted to the kept
        # vertices, so one digraph and one enumeration per ordered pair serve
        # every phi
        companions, pairs = [], []
        companion, enum_paths = verify._companion, oracle.enum_paths

        def counted_companion(matrix):
            companions.append(matrix)
            return companion(matrix)

        def counted_paths(digraph, start, goal, guard):
            pairs.append((start, goal))
            return enum_paths(digraph, start, goal, guard)

        monkeypatch.setattr(verify, "_companion", counted_companion)
        monkeypatch.setattr(oracle, "enum_paths", counted_paths)
        run_all_checks(graph)
        n = graph.n
        assert companions == [graph_matrix(graph)]
        assert sorted(pairs) == [(i, j) for i in range(n) for j in range(n) if i != j]

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
