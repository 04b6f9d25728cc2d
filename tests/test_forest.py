"""Forest-matrix identities against the enumeration oracle."""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import prod

import pytest

from forestmatrix import (
    GuardExceededError,
    Multidigraph,
    Multigraph,
    SingularForestMatrixError,
    SquareMatrix,
    accessibility,
    charpoly_forest_coeffs,
    cofactor_poly,
    contract,
    enum_diverging_forests,
    enum_diverging_trees,
    enum_paths,
    enum_rooted_forests,
    enum_spanning_trees,
    filter_rooted,
    filter_roots,
    forest_cofactor,
    forest_det,
    forest_matrix,
    forest_matrix_report,
    forest_minor,
    graph_matrix,
    laplacian,
    linalg,
    matrix_tree_check,
    merge_parallel,
    oracle,
    path_expansion_cofactor,
    set_weight,
    signed_cofactor_poly,
    to_bidirected,
    weight_of,
)
from forestmatrix.graphs import _scaled_rows
from helpers import (
    POSITIVE_POOL,
    WEIGHT_POOL,
    diag,
    is_inverse,
    matrix_sum,
    oracle_cofactor_coeffs,
    pair_weight_table,
    random_multidigraph,
    random_multigraph,
    reversed_digraph,
    root_set_weights,
)

F = Fraction


def enum_forests(graph):
    if isinstance(graph, Multidigraph):
        return enum_diverging_forests(graph)
    return enum_rooted_forests(graph)


class TestForestMatrix:
    def test_path_laplacian(self):
        lap = SquareMatrix(((1, -1), (-1, 1)))
        assert forest_matrix(lap) == SquareMatrix(((2, -1), (-1, 2)))

    def test_lambda_zero_is_the_matrix(self):
        lap = SquareMatrix(((1, -1), (-1, 1)))
        assert forest_matrix(lap, 0) == lap

    def test_directed(self):
        lap = SquareMatrix(((0, 0), (-1, 1)))
        assert forest_matrix(lap) == SquareMatrix(((1, 0), (-1, 2)))

    @pytest.mark.parametrize("lam", [0, 1, F(-1, 2), 3])
    def test_one_pass_shift_equals_identity_sum(self, lam):
        rng = random.Random(5)
        for g in (random_multigraph(rng), random_multidigraph(rng), Multigraph(0)):
            lap = graph_matrix(g)
            assert forest_matrix(lap, lam) == matrix_sum(diag(g.n, lam), lap)

    def test_report_carries_det(self, single_edge):
        report = forest_matrix_report(single_edge, F(1, 2))
        assert report.lam == F(1, 2)
        assert report.det == report.matrix.det()


class TestForestDet:
    def test_single_edge(self, single_edge):
        assert forest_det(single_edge) == 3

    def test_unit_k3(self, unit_k3):
        assert forest_det(unit_k3) == 16

    def test_single_arc(self, single_arc):
        assert forest_det(single_arc) == 2

    def test_matches_oracle_undirected(self):
        rng = random.Random(101)
        for _ in range(25):
            g = random_multigraph(rng)
            forests = enum_rooted_forests(g)
            assert forest_det(g) == set_weight((f.edges for f in forests), g)

    def test_matches_oracle_directed(self):
        rng = random.Random(102)
        for _ in range(25):
            dg = random_multidigraph(rng)
            forests = enum_diverging_forests(dg)
            assert forest_det(dg) == set_weight((f.arcs for f in forests), dg)


class TestForestCofactor:
    def test_single_edge(self, single_edge):
        assert forest_cofactor(single_edge, 0, 1) == 1

    def test_single_arc_asymmetry(self, single_arc):
        assert forest_cofactor(single_arc, 0, 1) == 1
        assert forest_cofactor(single_arc, 1, 0) == 0

    def test_diagonal_counts_roots(self, single_edge):
        assert forest_cofactor(single_edge, 0, 0) == 2

    def test_out_of_range(self, single_edge):
        with pytest.raises(IndexError):
            forest_cofactor(single_edge, 0, 2)

    def test_matches_oracle_and_symmetry_undirected(self):
        rng = random.Random(103)
        for _ in range(15):
            g = random_multigraph(rng)
            table = pair_weight_table(g, enum_rooted_forests(g))
            for i in range(g.n):
                for j in range(g.n):
                    value = forest_cofactor(g, i, j)
                    assert value == table[i][j]
                    assert value == forest_cofactor(g, j, i)

    def test_matches_oracle_directed(self):
        rng = random.Random(104)
        for _ in range(15):
            dg = random_multidigraph(rng)
            table = pair_weight_table(dg, enum_diverging_forests(dg))
            for i in range(dg.n):
                for j in range(dg.n):
                    assert forest_cofactor(dg, i, j) == table[i][j]


class TestAccessibility:
    def test_single_edge(self, single_edge):
        q = accessibility(single_edge).matrix
        assert q == SquareMatrix(((F(2, 3), F(1, 3)), (F(1, 3), F(2, 3))))

    def test_single_arc(self, single_arc):
        q = accessibility(single_arc).matrix
        assert q == SquareMatrix(((1, 0), (F(1, 2), F(1, 2))))

    def test_edgeless_is_identity(self):
        assert accessibility(Multigraph(4)).matrix == SquareMatrix.identity(4)

    def test_zero_forest_weight_raises(self):
        # a single edge of weight -1/2 cancels the forest total: 1 + w + w = 0
        g = Multigraph(2, ((0, 1, F(-1, 2)),))
        assert forest_det(g) == 0
        with pytest.raises(SingularForestMatrixError):
            accessibility(g)

    def test_rows_sum_to_one_and_ratios(self):
        rng = random.Random(105)
        done = 0
        while done < 15:
            g = random_multidigraph(rng)
            det = forest_det(g)
            if det == 0:
                continue
            done += 1
            q = accessibility(g).matrix
            assert q @ forest_matrix(graph_matrix(g)) == SquareMatrix.identity(g.n)
            assert all(s == 1 for s in q.row_sums())
            table = pair_weight_table(g, enum_diverging_forests(g))
            for i in range(g.n):
                for j in range(g.n):
                    assert q.entries[i][j] * det == table[j][i]

    def test_symmetric_and_unit_interval_for_positive_undirected(self):
        from helpers import POSITIVE_POOL

        rng = random.Random(106)
        for _ in range(10):
            g = random_multigraph(rng, pool=POSITIVE_POOL)
            q = accessibility(g).matrix
            assert q.is_symmetric()
            assert all(0 <= x <= 1 for row in q.entries for x in row)


SIGNED_POOL = tuple(F(x) for x in ("1", "-1", "2", "1/2", "-3/2", "1/3", "0"))


def signed_graph(rng, directed, n):
    """2n random instances from SIGNED_POOL plus a parallel pair that cancels."""
    if n < 2:
        return (Multidigraph if directed else Multigraph)(n)
    ends = [rng.sample(range(n), 2) for _ in range(2 * n + 1)]
    weights = [rng.choice(SIGNED_POOL) for _ in range(2 * n)]
    weights.append(-weights[-1])
    ends.append(ends[-1])
    instances = tuple((u, v, w) for (u, v), w in zip(ends, weights))
    return Multidigraph(n, instances) if directed else Multigraph(n, instances)


class TestAccessibilityKernel:
    """Q comes from the diagonal-pivot forward pass and a fraction-free back
    substitution; a zero pivot restarts a symmetric W's run on full rows, and
    swaps in a lower row on full rows. Every route must give the Fractions of
    adj W / det W."""

    @pytest.mark.parametrize("directed", [False, True])
    def test_matches_adjugate_over_det(self, directed, routes):
        rng = random.Random(113)
        zero_pivot = {"restart", "swap"} if not directed else {"swap"}
        counts = Counter()  # (singular, route)
        for n in (*range(9), 20):
            for lam in (1, F(1, 3), 2, F(-3, 2)):
                g = signed_graph(rng, directed, n)
                w = forest_matrix(graph_matrix(g), lam)
                det = w.det()
                routes.clear()
                if det == 0:
                    with pytest.raises(SingularForestMatrixError):
                        accessibility(g, lam)
                    assert len(routes) == 1  # completed with det 0, or stopped at a zero column
                    counts[True, "singular"] += 1
                    continue
                q = accessibility(g, lam).matrix
                counts[False, routes[0]] += 1
                assert is_inverse(w, q) and q == w.inverse()
                assert all(type(x) is Fraction for row in q.entries for x in row)
        assert counts[False, frozenset()] and counts[False, frozenset(zero_pivot)] and counts[True, "singular"]

    @pytest.mark.parametrize("directed", [False, True])
    def test_zero_markowitz_pivot_takes_the_fallback(self, directed, routes):
        # W = [[0, 2, -1], [2, 0, -1], [-1, -1, 3]]: every index costs 4, so
        # index 0 is pivoted first, and its diagonal entry is 0; the symmetric
        # run restarts on full rows, which swap in row 1. The digraph is the
        # bidirected twin, whose W is the same symmetric matrix
        instances = ((0, 1, -2), (1, 2, 1), (0, 2, 1))
        g = Multidigraph(3, instances + tuple((v, u, w) for u, v, w in instances)) if directed else Multigraph(3, instances)
        w = forest_matrix(graph_matrix(g))
        assert w.entries[0][0] == 0 and w.det() == -8
        routes.clear()
        q = accessibility(g).matrix
        assert routes == [{"restart", "swap"}]
        assert is_inverse(w, q)
        assert q == SquareMatrix(((F(1, 8), F(5, 8), F(1, 4)), (F(5, 8), F(1, 8), F(1, 4)), (F(1, 4), F(1, 4), F(1, 2))))

    @pytest.mark.parametrize("weight, lam", [(1, 0), (F(-1, 2), 1), (F(-1, 6), "1/3"), (F(1, 4), F(-1, 2))])
    def test_singular_message(self, weight, lam):
        # one edge: det W = lam * (lam + 2 * weight)
        g = Multigraph(2, ((0, 1, weight),))
        assert forest_det(g, lam) == 0
        with pytest.raises(SingularForestMatrixError) as raised:
            accessibility(g, lam)
        assert str(raised.value) == f"W = lambda*I + L is singular at lambda = {lam}; the accessibility matrix does not exist"


class TestBidirectedTwin:
    """The bidirected twin of a graph has the graph's symmetric W, so the
    kernels find from its rows that it is symmetric, and take the graph's
    upper-triangle runs for it, with the graph's values."""

    def test_twin_takes_the_graphs_runs(self, routes):
        rng = random.Random(139)
        restarts = 0

        def results(h):
            routes.clear()
            try:
                q = accessibility(h)
            except SingularForestMatrixError:
                q = None
            n = h.n
            values = (forest_det(h), q, charpoly_forest_coeffs(h),
                      [[(forest_cofactor(h, i, j), cofactor_poly(h, i, j)) for j in range(n)] for i in range(n)])
            return values, list(routes)

        for n in range(1, 8):
            for _ in range(4):
                g = signed_graph(rng, False, n)
                twin = to_bidirected(g)
                assert linalg._pivot_order(*_scaled_rows(twin), ())[1]
                values, runs = results(g)
                assert results(twin) == (values, runs)
                restarts += sum("restart" in run for run in runs)
        assert restarts


def random_graphs(seed, count):
    """`count` graphs of each kind, with positive and with signed weights."""
    rng = random.Random(seed)
    for pool in (POSITIVE_POOL, WEIGHT_POOL):
        for _ in range(count):
            yield random_multigraph(rng, 2, 6, 10, pool)
            yield random_multidigraph(rng, 2, 5, 10, pool)


class TestCharpolyForestCoeffs:
    def test_unit_k3(self, unit_k3):
        assert charpoly_forest_coeffs(unit_k3).coeffs == (0, 9, 6, 1)

    def test_equals_the_elimination_at_zero(self):
        # det L = 0 is taken as known; eliminating at x = 0 as well gives the same coefficients
        for g in random_graphs(117, 40):
            rows, mults = _scaled_rows(g)
            nodes = range(g.n + 1)
            values = linalg._diagonal(rows, mults, shifts=nodes)
            assert values[0] == 0
            expected = linalg._interpolated(nodes, values, prod(mults))
            assert charpoly_forest_coeffs(g).coeffs == expected

    @pytest.mark.parametrize("directed", [False, True])
    def test_zero_row_sums_skip_the_elimination_at_zero(self, directed, routes):
        # every graph matrix has zero row sums, so its char_poly eliminates only
        # at x = 1..n; W = I + L does not, and takes x = 0 as well
        rng = random.Random(119)
        for _ in range(10):
            g = random_multidigraph(rng, 2, 5, 8) if directed else random_multigraph(rng, 2, 6, 8)
            lap = graph_matrix(g)
            routes.clear()
            lap.char_poly()
            assert len(routes) == g.n
            routes.clear()
            forest_matrix(lap).char_poly()
            assert len(routes) == g.n + 1

    def test_source_vertex_runs_no_swap(self, routes):
        # vertex 0 has no entering arc, so L has a zero row, which the Markowitz
        # order pivots on first: at x = 0 that pivot is zero, at x >= 1 it is x
        dg = Multidigraph(4, ((0, 1, 1), (0, 2, 2), (1, 2, F(1, 2)), (2, 3, 3), (3, 1, F(1, 3))))
        poly = charpoly_forest_coeffs(dg)
        assert routes == [frozenset()] * dg.n
        assert poly.evaluate(1) == forest_det(dg)

    def test_edgeless(self):
        assert charpoly_forest_coeffs(Multigraph(2)).coeffs == (0, 0, 1)

    def test_evaluation_at_one_is_forest_det(self):
        rng = random.Random(107)
        for _ in range(20):
            g = random_multigraph(rng)
            assert charpoly_forest_coeffs(g).evaluate(1) == forest_det(g)

    def test_coefficients_match_root_set_totals(self):
        rng = random.Random(108)
        for graph_maker in (random_multigraph, random_multidigraph):
            for _ in range(10):
                g = graph_maker(rng, n_max=5, max_edges=8) if graph_maker is random_multigraph \
                    else graph_maker(rng, n_max=5, max_arcs=8)
                poly = charpoly_forest_coeffs(g)
                by_set = root_set_weights(g, enum_forests(g))
                for k in range(g.n + 1):
                    total = F(0)
                    for phi in combinations(range(g.n), k):
                        total += by_set.get(frozenset(phi), F(0))
                    assert poly.coeffs[k] == total

    def test_signed_weights_vanishing_at_nodes(self):
        # lower-triangular Kirchhoff matrix with diagonal 0, -1, -2: det(x*I + L)
        # = x(x - 1)(x - 2) is zero at three of the four nodes x = 0..3
        dg = Multidigraph(3, ((0, 1, -1), (0, 2, F(1, 2)), (1, 2, F(-5, 2))))
        poly = charpoly_forest_coeffs(dg)
        assert poly.coeffs == (0, 2, -3, 1)
        forests = enum_forests(dg)
        by_set = root_set_weights(dg, forests)
        for k in range(4):
            assert poly.coeffs[k] == sum(
                (by_set.get(frozenset(phi), F(0)) for phi in combinations(range(3), k)), F(0)
            )
        for i in range(3):
            for j in range(3):
                expected = oracle_cofactor_coeffs(dg, forests, i, j)
                assert list(cofactor_poly(dg, i, j).coeffs) == expected


class TestCofactorPoly:
    def test_single_edge_diagonal(self, single_edge):
        assert cofactor_poly(single_edge, 0, 0).coeffs == (1, 1)

    def test_evaluates_to_forest_cofactor(self):
        rng = random.Random(109)
        for _ in range(10):
            g = random_multigraph(rng, n_max=5)
            for i in range(g.n):
                for j in range(g.n):
                    assert cofactor_poly(g, i, j).evaluate(1) == forest_cofactor(g, i, j)

    def test_four_point_evaluation_matches_direct_cofactor(self):
        rng = random.Random(110)
        for _ in range(10):
            dg = random_multidigraph(rng)
            lap = graph_matrix(dg)
            for i in range(dg.n):
                for j in range(dg.n):
                    poly = cofactor_poly(dg, i, j)
                    # 0, 1 and 2 are interpolation nodes; the rest never are
                    for lam in (0, 1, 2, -1, -2, F(1, 2), F(-3, 2)):
                        assert poly.evaluate(lam) == forest_matrix(lap, lam).cofactor(i, j)

    def test_coefficients_match_formula_oracle(self):
        rng = random.Random(111)
        for _ in range(8):
            dg = random_multidigraph(rng, n_max=5, max_arcs=8)
            forests = enum_diverging_forests(dg)
            for i in range(dg.n):
                for j in range(dg.n):
                    expected = oracle_cofactor_coeffs(dg, forests, i, j)
                    assert list(cofactor_poly(dg, i, j).coeffs) == expected

    def test_undirected_coefficients_match_formula_oracle(self):
        rng = random.Random(112)
        for _ in range(8):
            g = random_multigraph(rng, n_max=5, max_edges=7)
            forests = enum_rooted_forests(g)
            for i in range(g.n):
                for j in range(g.n):
                    expected = oracle_cofactor_coeffs(g, forests, i, j)
                    assert list(cofactor_poly(g, i, j).coeffs) == expected


class TestPathExpansionCofactor:
    def test_path_laplacian(self):
        lap = SquareMatrix(((1, -1), (-1, 1)))
        assert path_expansion_cofactor(lap, 0, 1) == 1

    def test_unit_k3(self, unit_k3):
        lap = laplacian(unit_k3)
        assert path_expansion_cofactor(lap, 0, 1) == 3 == lap.cofactor(0, 1)

    def test_no_path_gives_zero(self):
        m = SquareMatrix(((1, 0), (-1, 2)))
        # companion digraph has no arc into row 0's column, so no 1 -> 0 path
        assert path_expansion_cofactor(m, 1, 0) == 0 == m.cofactor(1, 0)

    def test_diagonal_rejected(self, unit_k3):
        with pytest.raises(ValueError):
            path_expansion_cofactor(laplacian(unit_k3), 1, 1)

    def test_matches_cofactor_on_matrix_and_its_minors(self):
        rng = random.Random(113)
        for _ in range(8):
            dg = random_multidigraph(rng, n_max=5)
            lap = graph_matrix(dg)
            for size in range(dg.n - 1):
                for phi in combinations(range(dg.n), size):
                    sub = lap.delete_rows_cols(phi)
                    for i in range(sub.n):
                        for j in range(sub.n):
                            if i != j:
                                assert path_expansion_cofactor(sub, i, j) == sub.cofactor(i, j)


class TestSignedCofactorPoly:
    def test_single_edge_diagonal(self, single_edge):
        assert signed_cofactor_poly(single_edge, 0, 0).coeffs == (-1, 1)

    def test_equals_characteristic_matrix_cofactors(self):
        rng = random.Random(114)
        for maker in (random_multigraph, random_multidigraph):
            for _ in range(8):
                g = maker(rng, n_max=5)
                neg = -graph_matrix(g)
                for i in range(g.n):
                    for j in range(g.n):
                        poly = signed_cofactor_poly(g, i, j)
                        # n + 1 points, none of them an interpolation node 0..n-1
                        for lam in range(-1, -g.n - 2, -1):
                            assert poly.evaluate(lam) == forest_matrix(neg, lam).cofactor(i, j)

    def test_matches_arc_parity_signed_oracle(self):
        rng = random.Random(115)
        for _ in range(8):
            dg = random_multidigraph(rng, n_max=4, max_arcs=8)
            forests = enum_diverging_forests(dg)
            for i in range(dg.n):
                for j in range(dg.n):
                    plain = oracle_cofactor_coeffs(dg, forests, i, j)
                    n = dg.n
                    signed = [c if (n - 1 - k) % 2 == 0 else -c for k, c in enumerate(plain)]
                    assert list(signed_cofactor_poly(dg, i, j).coeffs) == signed

    def test_flip_rule_reference(self):
        # A forest in coefficient k has n-1-k arcs, so the signed coefficient k
        # is the plain one negated exactly when n-1-k is odd.
        rng = random.Random(116)
        pool = (F(0), F(1), F(-1), F(2), F(-2), F(1, 2), F(-3, 7), F(5, 12), F(7, 3))
        for maker in (random_multigraph, random_multidigraph):
            for _ in range(20):
                g = maker(rng, 2, 6, 9, pool)
                g = type(g)(g.n, g.instances + g.instances[:1])  # a parallel pair
                n = g.n
                for i in range(n):
                    for j in range(n):
                        plain = cofactor_poly(g, i, j).coeffs
                        flipped = tuple(-c if (n - 1 - k) % 2 else c for k, c in enumerate(plain))
                        assert signed_cofactor_poly(g, i, j).coeffs == flipped

    def test_equals_the_negated_rows_elimination(self):
        # the route this sign flip replaced: the cofactor polynomial of -L
        for g in random_graphs(118, 25):
            rows, mults = _scaled_rows(g)
            negated = [[-x for x in row] for row in rows]
            for i in range(g.n):
                for j in range(g.n):
                    want = linalg._cofactor_poly(negated, mults, i, j)
                    assert signed_cofactor_poly(g, i, j) == want

    def test_edgeless_equals_plain(self):
        g = Multigraph(3)
        for i in range(3):
            for j in range(3):
                assert signed_cofactor_poly(g, i, j) == cofactor_poly(g, i, j)


class TestMatrixTreeCheck:
    def test_unit_k3(self, unit_k3):
        report = matrix_tree_check(unit_k3)
        assert report.passed and not report.directed
        assert report.tree_weights == (3, 3, 3)

    def test_directed_3cycle(self, directed_3cycle):
        report = matrix_tree_check(directed_3cycle)
        assert report.passed and report.directed
        assert report.tree_weights == (1, 1, 1)

    def test_disconnected_graph_has_zero_cofactors(self):
        g = Multigraph(4, ((0, 1, 1), (2, 3, 1)))
        report = matrix_tree_check(g)
        assert report.passed
        assert report.tree_weights == (0, 0, 0, 0)
        assert all(x == 0 for row in report.cofactors.entries for x in row)

    def test_random(self):
        rng = random.Random(116)
        for _ in range(10):
            assert matrix_tree_check(random_multigraph(rng, max_edges=8)).passed
            assert matrix_tree_check(random_multidigraph(rng, max_arcs=8)).passed

    @pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
    def test_tree_totals_from_one_walk_per_root(self, directed, spy):
        # each root's total is read from the oracle walk of the trees diverging
        # from it, vertex 0 alone for a graph, and equals the public enumeration's
        rng = random.Random(31)
        g = random_multidigraph(rng, 3, 5, 8) if directed else random_multigraph(rng, 3, 5, 6)
        walks = spy(oracle, "_choices")
        names = ("enum_spanning_trees", "enum_diverging_trees", "set_weight", "weight_of")
        public = [spy(oracle, name) for name in names]
        report = matrix_tree_check(g)
        assert [(c["graph"], c["root"]) for c in walks] == [(g, r) for r in (range(g.n) if directed else (0,))]
        assert public == [[]] * 4
        if directed:
            expected = tuple(set_weight((t.arcs for t in enum_diverging_trees(g, r)), g) for r in range(g.n))
        else:
            expected = (set_weight(enum_spanning_trees(g), g),) * g.n
        assert report.tree_weights == expected and report.passed

    def test_report_flags_identities_separately(self):
        from forestmatrix import MatrixTreeReport

        grid = SquareMatrix(((1, 1), (2, 2)))
        directed = MatrixTreeReport(True, grid, (F(1), F(2)))
        assert directed.cofactors_constant and directed.matches_enumeration and directed.passed
        undirected = MatrixTreeReport(False, grid, (F(1), F(2)))
        assert not undirected.cofactors_constant  # rows must agree when undirected
        assert not undirected.passed
        wrong_oracle = MatrixTreeReport(True, grid, (F(1), F(3)))
        assert wrong_oracle.cofactors_constant and not wrong_oracle.matches_enumeration

    @pytest.mark.parametrize("kind", [Multigraph, Multidigraph])
    def test_over_guard_graph_is_refused_before_any_elimination(self, kind, routes):
        path = kind(40, tuple((v, v + 1, 1) for v in range(39)))
        with pytest.raises(GuardExceededError, match="40 vertices / 39 instances exceed"):
            matrix_tree_check(path)
        assert routes == []


class TestForestMinor:
    def test_unit_k3_single_root(self, unit_k3):
        assert forest_minor(unit_k3, (0,)) == 3

    def test_all_vertices(self, unit_k3):
        assert forest_minor(unit_k3, range(3)) == 1

    def test_empty_set_is_det_l(self, unit_k3):
        assert forest_minor(unit_k3, ()) == 0 == laplacian(unit_k3).det()

    def test_equals_root_filtered_weight(self):
        rng = random.Random(117)
        for maker in (random_multigraph, random_multidigraph):
            for _ in range(8):
                g = maker(rng, n_max=5, max_edges=8) if maker is random_multigraph \
                    else maker(rng, n_max=5, max_arcs=8)
                by_set = root_set_weights(g, enum_forests(g))
                for k in range(g.n + 1):
                    for phi in combinations(range(g.n), k):
                        expected = by_set.get(frozenset(phi), F(0)) if phi else F(0)
                        assert forest_minor(g, phi) == expected

    def test_matches_contraction_route(self):
        rng = random.Random(118)
        for _ in range(10):
            dg = random_multidigraph(rng, n_max=5, max_arcs=9)
            size = rng.randint(1, dg.n)
            phi = tuple(sorted(rng.sample(range(dg.n), size)))
            contracted, star = contract(dg, phi)
            trees = enum_diverging_trees(contracted, star)
            assert forest_minor(dg, phi) == set_weight((t.arcs for t in trees), contracted)


class TestParallelMergeAndSplit:
    def test_forest_quantities_invariant(self):
        rng = random.Random(119)
        for _ in range(10):
            dg = random_multidigraph(rng, max_arcs=8)
            merged = merge_parallel(dg)
            assert forest_det(dg) == forest_det(merged)
            for i in range(dg.n):
                for j in range(dg.n):
                    assert forest_cofactor(dg, i, j) == forest_cofactor(merged, i, j)

    def test_splitting_one_arc_changes_nothing(self):
        rng = random.Random(120)
        done = 0
        while done < 10:
            dg = random_multidigraph(rng, max_arcs=8)
            if not dg.arcs:
                continue
            done += 1
            idx = rng.randrange(len(dg.arcs))
            tail, head, w = dg.arcs[idx]
            part = rng.choice((F(1, 3), F(1, 2), F(2),))
            arcs = list(dg.arcs)
            arcs[idx] = (tail, head, w * part)
            arcs.append((tail, head, w * (1 - part)))
            split = Multidigraph(dg.n, tuple(arcs))
            assert forest_det(split) == forest_det(dg)
            for i in range(dg.n):
                for j in range(dg.n):
                    assert forest_cofactor(split, i, j) == forest_cofactor(dg, i, j)


class TestConvergingDuality:
    def test_reverse_gives_converging_quantities(self):
        # cofactor (i, j) of W(reverse) equals the weight of arc subsets of the
        # original that form converging forests joining j into the tree
        # converging to i; checked by an out-degree-based filter on the
        # original arcs
        rng = random.Random(121)
        for _ in range(10):
            dg = random_multidigraph(rng, n_max=4, max_arcs=8)
            rev = reversed_digraph(dg)
            rev_forests = enum_diverging_forests(rev)
            table = pair_weight_table(rev, rev_forests)
            for i in range(dg.n):
                for j in range(dg.n):
                    value = forest_cofactor(rev, i, j)
                    assert value == table[i][j]
                    total = F(0)
                    for f in rev_forests:
                        # same instance indices describe the reversed arcs in dg
                        out_deg = {}
                        parent = {}
                        for idx in f.arcs:
                            a = dg.arcs[idx]
                            out_deg[a.tail] = out_deg.get(a.tail, 0) + 1
                            parent[a.tail] = a.head
                        assert all(d <= 1 for d in out_deg.values())
                        v = j
                        while v in parent:
                            v = parent[v]
                        if v == i:
                            total += weight_of(f.arcs, dg)
                    assert value == total


PATH_LAPLACIAN = SquareMatrix(((1, -1), (-1, 1)))
PATH = Multigraph(3, ((0, 1, 1), (1, 2, 1)))
BOOL = "index True is a bool, not an integer"


@pytest.mark.parametrize("call, error, message", [
    (lambda: path_expansion_cofactor(PATH_LAPLACIAN, 0, 2), IndexError, "cofactor index (0, 2) out of range for n=2"),
    (lambda: path_expansion_cofactor(PATH_LAPLACIAN, -1, 0), IndexError, "cofactor index (-1, 0) out of range for n=2"),
    (lambda: matrix_tree_check(Multigraph(0)), ValueError, "matrix-tree check needs at least one vertex"),
    (lambda: matrix_tree_check(Multidigraph(0)), ValueError, "matrix-tree check needs at least one vertex"),
    # bool is an int subclass: True must not be read as vertex or instance 1
    (lambda: forest_cofactor(PATH, True, 0), TypeError, BOOL),
    (lambda: cofactor_poly(PATH, True, False), TypeError, BOOL),
    (lambda: PATH_LAPLACIAN.cofactor(0, True), TypeError, BOOL),
    (lambda: forest_minor(PATH, [True]), TypeError, BOOL),
    (lambda: enum_diverging_trees(to_bidirected(PATH), True), TypeError, BOOL),
    (lambda: enum_paths(to_bidirected(PATH), True, 0), TypeError, BOOL),
    (lambda: filter_rooted(PATH, enum_rooted_forests(PATH), True, 0), TypeError, BOOL),
    (lambda: contract(to_bidirected(PATH), [True, 0]), TypeError, BOOL),
    (lambda: weight_of([True], PATH), TypeError, BOOL),
    # nor as the number 1 or 0
    (lambda: Multigraph(2, ((0, 1, True),)), TypeError, "refusing bool True; pass an int, Fraction or string"),
    (lambda: forest_det(PATH, lam=False), TypeError, "refusing bool False; pass an int, Fraction or string"),
    (lambda: SquareMatrix(((True,),)), TypeError, "refusing bool True; pass an int, Fraction or string"),
], ids=["path-expansion-2", "path-expansion-minus-1", "matrix-tree-graph", "matrix-tree-digraph",
        *(f"bool-{name}" for name in ("cofactor", "cofactor-poly", "matrix-cofactor", "minor",
                                       "diverging-trees", "paths", "filter-rooted", "contract", "weight",
                                       "edge-weight", "lambda", "matrix-entry"))])
def test_refused_input(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert str(raised.value) == message


@pytest.mark.parametrize("indices", [[1, True], [True, 1]], ids=["int-first", "bool-first"])
@pytest.mark.parametrize("call", [
    lambda vs: forest_minor(PATH, vs),
    lambda vs: contract(Multidigraph(3, ((0, 1, 1), (1, 2, 1), (2, 0, 1))), vs),
    lambda vs: filter_roots(PATH, enum_rooted_forests(PATH), vs),
], ids=["minor", "contract", "filter-roots"])
def test_bool_refused_beside_its_int(call, indices):
    # a set of 1 and True keeps whichever comes first, so each index is
    # checked before the indices are deduplicated
    with pytest.raises(TypeError) as raised:
        call(indices)
    assert str(raised.value) == BOOL
