"""Exact linear algebra: determinants, cofactors, adjugates, polynomials."""

import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from forestmatrix import (
    Polynomial,
    SingularMatrixError,
    SquareMatrix,
    accessibility,
    as_rational,
    forest_cofactor,
    forest_det,
    forest_matrix,
    graph_matrix,
    linalg,
)
from helpers import (
    POSITIVE_POOL,
    WEIGHT_POOL,
    diag,
    fraction_horner,
    is_inverse,
    leibniz_cofactor,
    leibniz_det,
    min_degree_order,
    minor_adjugate,
    random_multidigraph,
    random_multigraph,
)

F = Fraction

M2 = SquareMatrix(((2, -1), (-1, 2)))
M3 = SquareMatrix(((3, -1, -1), (-1, 3, -1), (-1, -1, 3)))
K3_LAP = SquareMatrix(((2, -1, -1), (-1, 2, -1), (-1, -1, 2)))


class TestAsRational:
    @pytest.mark.parametrize("text, value", [
        ("2/4", F(1, 2)), ("0.25", F(1, 4)), ("-3", F(-3)), ("1e3", F(1000)), ("+.5", F(1, 2)),
        ("9" * 4300, F(10**4300 - 1)), ("1/" + "1" * 4300, F(9, 10**4300 - 1)),
        ("1." + "0" * 4300, F(1)), ("1e" + "0" * 4299 + "2", F(100)), ("1e4300", F(10**4300)),
    ])
    def test_grammar(self, text, value):
        assert as_rational(text) == value

    @pytest.mark.parametrize("text", [
        "1_0", "\u0661", "9" * 4301, "1/" + "1" * 4301, "1." + "0" * 4301, "1e" + "0" * 4301,
        " 1", "1/0", "1/-2", "0x3", "", "inf", "nan", "1e4301", "1e-4301",
    ])
    def test_outside_grammar_is_value_error(self, text):
        with pytest.raises(ValueError):
            as_rational(text)


def random_matrix(rng, n, pool=WEIGHT_POOL):
    return SquareMatrix(tuple(tuple(rng.choice(pool) for _ in range(n)) for _ in range(n)))


class TestDet:
    def test_identity(self):
        assert SquareMatrix.identity(3).det() == 1

    def test_2x2(self):
        assert M2.det() == 3

    def test_3x3(self):
        assert M3.det() == 16
        assert leibniz_det(M3) == 16

    def test_empty_matrix_is_one(self):
        assert SquareMatrix(()).det() == 1

    def test_rational_entries_cleared_exactly(self):
        m = SquareMatrix(((F(1, 2), F(1, 3)), (F(1, 5), F(2, 7))))
        assert m.det() == leibniz_det(m)

    def test_zero_pivot_needs_row_swap(self):
        m = SquareMatrix(((0, 1, 2), (1, 0, 3), (4, 5, 0)))
        assert m.det() == leibniz_det(m)

    def test_singular(self):
        assert SquareMatrix(((1, 2), (2, 4))).det() == 0

    def test_matches_leibniz_on_random(self):
        rng = random.Random(7)
        for _ in range(40):
            m = random_matrix(rng, rng.randint(0, 5))
            assert m.det() == leibniz_det(m)

    def test_multiplicative(self):
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randint(0, 5)
            a, b = random_matrix(rng, n), random_matrix(rng, n)
            assert (a @ b).det() == a.det() * b.det()


class TestCofactor:
    def test_diagonal(self):
        assert M2.cofactor(0, 0) == 2

    def test_off_diagonal_sign(self):
        assert M2.cofactor(0, 1) == 1

    def test_3x3(self):
        assert M3.cofactor(0, 1) == 4

    def test_one_by_one_is_one(self):
        assert SquareMatrix(((5,),)).cofactor(0, 0) == 1

    @pytest.mark.parametrize("i,j", [(-1, 0), (0, 2), (2, 0)])
    def test_out_of_range(self, i, j):
        with pytest.raises(IndexError):
            M2.cofactor(i, j)


class TestAdjugate:
    def test_identity(self):
        assert SquareMatrix.identity(2).adjugate() == SquareMatrix.identity(2)

    def test_2x2(self):
        assert M2.adjugate() == SquareMatrix(((2, 1), (1, 2)))

    def test_product_identity(self):
        assert M3 @ M3.adjugate() == diag(3, 16)

    def test_product_identity_singular(self):
        m = SquareMatrix(((1, 2), (2, 4)))
        assert m @ m.adjugate() == diag(2, 0)

    def test_product_identity_13x13(self):
        rng = random.Random(3)
        m = forest_matrix(random_matrix(rng, 13, pool=(F(0), F(1))), 5)
        assert m @ m.adjugate() == diag(13, m.det())


def staircase(rng, n):
    """diag(0, -1, ..., 1 - n) plus a random strict upper part: det(x*I + m) has
    the roots x = 0, 1, ..., n - 1, so the first n nonnegative shifts are singular."""
    return SquareMatrix(tuple(
        tuple(-r if r == c else rng.choice(WEIGHT_POOL) if c > r else 0 for c in range(n))
        for r in range(n)
    ))


def adjugate_cases():
    """Seeded matrices, n = 1..7: random, with a duplicate row, undirected and
    directed graph Laplacians (all singular), and staircases."""
    rng = random.Random(59)
    cases = []
    for n in range(1, 8):
        m = random_matrix(rng, n)
        cases += [m, SquareMatrix(m.entries[:-1] + m.entries[:1]), staircase(rng, n)]
        if n > 1:
            cases += [graph_matrix(random_multigraph(rng, n, n, 2 * n)),
                      graph_matrix(random_multidigraph(rng, n, n, 2 * n))]
    return cases


class TestAdjugateKernel:
    """adjugate and the cofactor-polynomial grid come from back substitutions at
    nonsingular shifts; each must equal its entry-by-entry route."""

    def test_cases_cover_singular_and_nonsingular(self):
        dets = [m.det() for m in adjugate_cases()]
        assert sum(d == 0 for d in dets) >= 25 and sum(d != 0 for d in dets) >= 5

    def test_adjugate_matches_signed_minors(self):
        for m in adjugate_cases():
            assert m.adjugate() == minor_adjugate(m)

    def test_cofactor_polys_match_per_pair(self):
        for m in adjugate_cases():
            grid = [[m.cofactor_poly(i, j) for j in range(m.n)] for i in range(m.n)]
            assert m._cofactor_polys() == grid

    def test_first_shifts_singular(self):
        # shifts 0, 1 and 2 are singular, so the nodes start at 3
        m = SquareMatrix(((0, 1, F(1, 2)), (0, -1, 2), (0, 0, -2)))
        assert m.adjugate() == minor_adjugate(m) == SquareMatrix(((2, 2, F(5, 2)), (0, 0, 0), (0, 0, 0)))
        assert m._cofactor_polys()[0][0].coeffs == (2, -3, 1)

    def test_empty_grid(self):
        assert SquareMatrix(())._cofactor_polys() == []

    def test_interpolated_at_non_consecutive_nodes(self):
        # 6 * p(x) = 7 - 3x + 2x**3, through four distinct nodes out of order
        nodes = [5, -2, 9, 0]
        values = [7 - 3 * x + 2 * x**3 for x in nodes]
        assert linalg._interpolated(nodes, values, 6) == (F(7, 6), F(-1, 2), 0, F(1, 3))
        weights, q = linalg._weights_at_zero(nodes)
        assert F(sum(w * v for w, v in zip(weights, values)), 6 * q) == F(7, 6)
        assert linalg._interpolated([3], [12], 4) == (3,)


class TestInverse:
    def test_identity(self):
        assert SquareMatrix.identity(3).inverse() == SquareMatrix.identity(3)

    def test_2x2(self):
        assert M2.inverse() == SquareMatrix(((F(2, 3), F(1, 3)), (F(1, 3), F(2, 3))))

    def test_triangular(self):
        m = SquareMatrix(((1, 0), (-1, 2)))
        assert m.inverse() == SquareMatrix(((1, 0), (F(1, 2), F(1, 2))))

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            SquareMatrix(((1, 2), (2, 4))).inverse()

    def test_zero_leading_pivot_with_rational_rows(self):
        # rows scale by 6, 10 and 7: the inverse must undo each row's multiplier
        m = SquareMatrix(((0, F(1, 2), F(1, 3)), (F(2, 5), F(-1, 2), 1), (F(3, 7), 0, 2)))
        inv = m.inverse()
        assert m @ inv == SquareMatrix.identity(3) == inv @ m
        assert inv == m.adjugate() @ diag(3, 1 / m.det())

    def test_round_trip_random(self):
        rng = random.Random(23)
        done = 0
        while done < 25:
            m = random_matrix(rng, rng.randint(1, 5))
            if m.det() == 0:
                continue
            assert m @ m.inverse() == SquareMatrix.identity(m.n)
            done += 1


def sparse_matrix(rng, n, density, pool):
    return SquareMatrix(
        tuple(tuple(rng.choice(pool) if rng.random() < density else 0 for _ in range(n))
              for _ in range(n))
    )


def forest_w(rng, n, directed):
    make = random_multidigraph if directed else random_multigraph
    return forest_matrix(graph_matrix(make(rng, n, n, 3 * n, POSITIVE_POOL)))


class TestSparseKernel:
    """The kernel skips rows with a zero pivot-column entry and reorders rows and
    columns in a Markowitz order; neither may change a value."""

    # Every index has Markowitz cost 4, so the order is kept. Step 0 leaves a zero in
    # position (1, 1), and the row swapped in has not been updated since the
    # start, so it is brought up to date as it becomes the pivot row.
    MID_ZERO_PIVOT = SquareMatrix(((2, 2, 0, 1), (2, 2, 1, 0), (0, 1, 3, 1), (1, 0, 2, 2)))
    # A zero diagonal stays on the diagonal under any symmetric reordering,
    # so the first pivot is zero whatever the order.
    ZERO_DIAGONAL = SquareMatrix(((0, 1, 0, 0), (0, 0, 2, 0), (0, 0, 0, F(1, 2)), (3, 0, 0, 0)))

    def check_against_leibniz(self, m: SquareMatrix) -> None:
        n = m.n
        det = leibniz_det(m)
        assert m.det() == det
        pairs = [(i, j) for i in range(n) for j in range(n)] if n <= 4 else [
            (0, n - 1), (n - 1, 0), (n // 2, n // 2), (1, n - 2)]
        for i, j in pairs:
            assert m.cofactor(i, j) == leibniz_cofactor(m, i, j)
        if det == 0:
            with pytest.raises(SingularMatrixError):
                m.inverse()
        else:
            inv = m.inverse()
            assert m @ inv == SquareMatrix.identity(m.n)
            assert inv.entries[0][m.n - 1] == leibniz_cofactor(m, m.n - 1, 0) / det

    @pytest.mark.parametrize("m", [MID_ZERO_PIVOT, ZERO_DIAGONAL], ids=["mid", "leading"])
    def test_zero_pivots(self, m):
        self.check_against_leibniz(m)

    def test_singular_and_zero_rows(self):
        dup = SquareMatrix(((1, 0, 2), (0, 3, 0), (1, 0, 2)))
        zero_row = SquareMatrix(((1, 2, 0), (0, 0, 0), (0, 4, 5)))
        zero_col = SquareMatrix(((0, 2, 1), (0, 1, 0), (0, 4, 5)))
        for m in (dup, zero_row, zero_col, diag(3, 0)):
            self.check_against_leibniz(m)

    @pytest.mark.parametrize("pool", [(1, -1, 2, 3, -4), WEIGHT_POOL], ids=["integer", "rational"])
    def test_random_sparse_matches_leibniz(self, pool):
        rng = random.Random(41)
        for n in range(1, 8):
            for _ in range(6 if n < 7 else 2):
                self.check_against_leibniz(sparse_matrix(rng, n, rng.uniform(0.15, 0.6), pool))

    def test_adjugate_is_transposed_cofactors(self):
        rng = random.Random(43)
        for n in range(1, 8):
            m = sparse_matrix(rng, n, 0.4, WEIGHT_POOL)
            adj = m.adjugate()
            assert all(adj[j, i] == m.cofactor(i, j) for i in range(n) for j in range(n))

    @pytest.mark.parametrize("directed", [False, True])
    def test_symmetric_permutation_of_sparse_w(self, directed):
        rng = random.Random(47)
        w = forest_w(rng, 40, directed)
        perm = list(range(40))
        rng.shuffle(perm)
        p = SquareMatrix(tuple(tuple(w.entries[a][b] for b in perm) for a in perm))
        assert p.det() == w.det() != 0
        inv, pinv = w.inverse(), p.inverse()
        assert all(pinv[a, b] == inv[perm[a], perm[b]] for a in range(40) for b in range(40))

    @pytest.mark.parametrize("directed", [False, True])
    def test_n96_forest_det_against_modular_elimination(self, directed):
        prime = 2**61 - 1
        make = random_multidigraph if directed else random_multigraph
        g = make(random.Random(53), 96, 96, 3 * 96, POSITIVE_POOL)
        det = forest_det(g)
        rows = [[x.numerator * pow(x.denominator, -1, prime) % prime for x in row]
                for row in forest_matrix(graph_matrix(g)).entries]
        expected = 1
        for k in range(96):
            pivot_row = next(r for r in range(k, 96) if rows[r][k])
            if pivot_row != k:
                rows[k], rows[pivot_row] = rows[pivot_row], rows[k]
                expected = -expected
            pivot = rows[k][k]
            expected = expected * pivot % prime
            inv = pow(pivot, -1, prime)
            for r in range(k + 1, 96):
                f = rows[r][k] * inv % prime
                if f:
                    rows[r] = [(a - f * b) % prime for a, b in zip(rows[r], rows[k])]
        assert det.numerator * pow(det.denominator, -1, prime) % prime == expected % prime


def symmetric_matrix(rng, n, pool, singular=False):
    a = [[0] * n for _ in range(n)]
    for r in range(n):
        for c in range(r, n):
            a[r][c] = a[c][r] = rng.choice(pool)
    if singular and n > 1:  # the last row and column repeat the first
        for c in range(n):
            a[n - 1][c] = a[c][n - 1] = a[0][c]
        a[n - 1][n - 1] = a[0][0]
    return SquareMatrix(tuple(map(tuple, a)))


def routed(routes, call):
    """call()'s value and the route (the routes fixture's tags) of the one
    _forward run it starts; None for an empty minor, which starts none."""
    routes.clear()
    value = call()
    assert len(routes) <= 1
    return value, routes[0] if routes else None


DIRECT, RESTART, SWAP, SINGULAR = frozenset(), "restart", "swap", "singular"


class TestSymmetricKernel:
    """det and cofactor of a symmetric matrix run linalg._forward on the upper
    triangle, which restarts on full rows at a zero pivot, or ends with 0 when
    the pivot row is zero too."""

    def test_matches_leibniz(self, routes):
        rng = random.Random(59)
        pool = (0, 0, 1, -1, 2, F(1, 2), F(-3, 2), F(1, 3))
        counts = Counter()  # (det, diagonal or off-diagonal cofactor; route)
        for n in range(8):
            for copy in range(8 if n < 6 else 2):
                m = symmetric_matrix(rng, n, pool, singular=copy % 3 == 1)
                assert m.is_symmetric()
                det, route = routed(routes, m.det)
                counts["det", route] += 1
                assert det == leibniz_det(m)
                for i, j in product(range(n), repeat=2):
                    cofactor, route = routed(routes, lambda: m.cofactor(i, j))
                    counts[i == j, route] += 1
                    assert cofactor == leibniz_cofactor(m, i, j)
        for kind in ("det", True, False):
            assert counts[kind, DIRECT] and counts[kind, frozenset({SINGULAR})]
            assert counts[kind, frozenset({RESTART, SWAP})] and counts[kind, frozenset({RESTART, SINGULAR})]


class TestDiagonalKernel:
    """det and cofactor of any other matrix run linalg._forward on full rows, in
    one Markowitz order, which swaps in a lower row at a zero pivot, or ends
    with 0 when there is none."""

    def test_nonsymmetric_matches_leibniz(self, routes):
        rng = random.Random(67)
        pool = (0, 0, 1, -1, 2, F(1, 2), F(-3, 2), F(1, 3))
        counts = Counter()  # (det, diagonal or off-diagonal cofactor; route)
        for n in range(8):
            for copy in range(8 if n < 6 else 2):
                m = sparse_matrix(rng, n, 0.9 if copy % 2 else 0.5, pool)
                rows, mults = linalg._integer_rows(m.entries)
                det, route = routed(routes, lambda: linalg._det(rows, mults, False))
                counts["det", route] += 1
                assert det == leibniz_det(m)
                for i, j in product(range(n), repeat=2):
                    cofactor, route = routed(routes, lambda: linalg._cofactor(rows, mults, i, j, False))
                    counts[i == j, route] += 1
                    assert cofactor == leibniz_cofactor(m, i, j)
        for kind in ("det", True, False):
            assert counts[kind, DIRECT] and counts[kind, frozenset({SWAP})] and counts[kind, frozenset({SINGULAR})]
        assert not any(RESTART in route for _, route in counts if route)

    @pytest.mark.parametrize("directed", [False, True])
    def test_positive_w_takes_no_general_kernel(self, routes, directed):
        # W = I + L with positive weights is strictly diagonally dominant, so no
        # diagonal pivot is zero, in any order: no run swaps, restarts or ends early
        make = random_multidigraph if directed else random_multigraph
        g = make(random.Random(61), 12, 12, 36, POSITIVE_POOL)
        forest_det(g)
        forest_cofactor(g, 0, 5)
        forest_cofactor(g, 3, 3)
        accessibility(g, F(1, 3))
        forest_matrix(graph_matrix(g), 2).inverse()
        assert routes == [DIRECT] * 5

    def test_inverse_matches_adjugate_over_det(self, routes):
        # inverse takes the forward pass and back substitution, with a restart
        # or row swaps at a zero pivot; every route must give adj / det,
        # symmetric or not, and a singular matrix ends its run at a zero pivot
        rng = random.Random(131)
        pool = (0, 0, 1, -1, 2, F(1, 2), F(-3, 2), F(1, 3))
        counts = Counter()  # (symmetric, route)
        for n in range(1, 9):
            for copy in range(8):
                symmetric = copy % 2 == 0
                m = symmetric_matrix(rng, n, pool) if symmetric else sparse_matrix(rng, n, 0.6, pool)
                det = m.det()
                routes.clear()
                if det == 0:
                    with pytest.raises(SingularMatrixError, match="^matrix is singular$"):
                        m.inverse()
                    assert SINGULAR in routes[0]
                else:
                    inv = m.inverse()
                    assert is_inverse(m, inv)
                    assert inv.is_symmetric() or not symmetric
                counts[symmetric, routes[0]] += 1
        assert counts[True, DIRECT] and counts[True, frozenset({RESTART, SWAP})]
        assert counts[False, DIRECT] and counts[False, frozenset({SWAP})]
        assert counts[True, frozenset({SINGULAR})] and counts[False, frozenset({SINGULAR})]

    def test_order_on_a_symmetric_pattern_is_minimum_degree(self):
        rng = random.Random(71)
        for n in range(12):
            for _ in range(6):
                rows = [[0] * n for _ in range(n)]
                for r in range(n):
                    rows[r][r] = 1
                    for c in range(r + 1, n):
                        if rng.random() < 0.3:
                            rows[r][c] = rows[c][r] = rng.choice((1, -2, 3))
                lasts = [()] + [(i,) for i in range(n)] + [(j, i) for i in range(n) for j in range(n) if i != j]
                for last in lasts:
                    expected = min_degree_order(rows, last)
                    assert linalg._pivot_order(rows, last, True) == expected
                    assert linalg._pivot_order(rows, last, False) == expected


class TestDeleteRowsCols:
    def test_empty_set(self):
        assert M3.delete_rows_cols(()) == M3

    def test_single_vertex(self):
        assert K3_LAP.delete_rows_cols((0,)) == SquareMatrix(((2, -1), (-1, 2)))

    def test_delete_all(self):
        sub = M3.delete_rows_cols((0, 1, 2))
        assert sub.n == 0 and sub.det() == 1

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            M3.delete_rows_cols((3,))


class TestCharPoly:
    def test_zero_matrix(self):
        assert diag(2, 0).char_poly().coeffs == (0, 0, 1)

    def test_k3_laplacian(self):
        assert K3_LAP.char_poly().coeffs == (0, 9, 6, 1)

    def test_empty_matrix_is_one(self):
        assert SquareMatrix(()).char_poly().coeffs == (1,)

    def test_constant_term_is_det(self):
        rng = random.Random(5)
        for _ in range(20):
            m = random_matrix(rng, rng.randint(0, 5))
            assert m.char_poly().coeffs[0] == m.det()

    def test_coefficients_equal_principal_minor_sums(self):
        rng = random.Random(13)
        for _ in range(20):
            m = random_matrix(rng, rng.randint(0, 6))
            poly = m.char_poly()
            for k in range(m.n + 1):
                assert poly.coeffs[k] == m.principal_minor_sum(k)

    def test_results_canonical(self):
        for c in K3_LAP.char_poly().coeffs:
            assert type(c) is Fraction and c.denominator > 0


class TestCofactorPoly:
    def test_one_by_one_is_one(self):
        assert SquareMatrix(((F(5, 3),),)).cofactor_poly(0, 0).coeffs == (1,)

    def test_k3_laplacian(self):
        assert K3_LAP.cofactor_poly(0, 0).coeffs == (3, 4, 1)
        assert K3_LAP.cofactor_poly(0, 1).coeffs == (3, 1, 0)

    def test_evaluations_off_the_nodes(self):
        rng = random.Random(17)
        for _ in range(20):
            m = random_matrix(rng, rng.randint(1, 5))
            for i in range(m.n):
                for j in range(m.n):
                    poly = m.cofactor_poly(i, j)
                    for x in (-1, F(1, 2), F(-7, 3), m.n + 1):
                        assert poly.evaluate(x) == forest_matrix(m, x).cofactor(i, j)

    @pytest.mark.parametrize("i,j", [(-1, 0), (0, 2)])
    def test_out_of_range(self, i, j):
        with pytest.raises(IndexError):
            M2.cofactor_poly(i, j)


class TestPrincipalMinorSum:
    def test_full_deletion_is_one(self):
        assert M3.principal_minor_sum(3) == 1

    def test_no_deletion_is_det(self):
        assert M3.principal_minor_sum(0) == 16

    def test_k3(self):
        assert K3_LAP.principal_minor_sum(1) == 9

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            M3.principal_minor_sum(4)


class TestMatrixBasics:
    def test_not_square_rejected(self):
        with pytest.raises(ValueError):
            SquareMatrix(((1, 2), (3,)))

    def test_float_entries_rejected(self):
        with pytest.raises(TypeError):
            SquareMatrix(((0.5,),))

    def test_string_entries_parsed_exactly(self):
        m = SquareMatrix((("1/2", "0.25"), ("3", "-2")))
        assert m.entries[0] == (F(1, 2), F(1, 4))

    def test_row_sums_and_symmetry(self):
        assert K3_LAP.row_sums() == (0, 0, 0)
        assert K3_LAP.is_symmetric()
        assert not SquareMatrix(((0, 1), (0, 0))).is_symmetric()


class TestPolynomial:
    def test_degree_counts_trailing_zeros(self):
        p = Polynomial((1, 2, 0))
        assert p.degree == 2 and p.coeffs == (1, 2, 0)

    def test_evaluate(self):
        p = Polynomial((1, 0, 1))  # 1 + x**2
        assert p.evaluate(F(1, 2)) == F(5, 4)
        assert p.evaluate(-2) == 5

    @pytest.mark.parametrize("x", [0, 1, 3, -2, F(1, 2), F(-3, 2), F(7, 12), "-5/9"])
    def test_evaluate_matches_fraction_horner(self, x):
        polys = [(F(5, 7),), (0,), (-3,), (1, 0, 1), (F(-1, 2), 3, F(2, 3), 0)]
        rng = random.Random(9)
        polys += [tuple(rng.choice(WEIGHT_POOL + (0,)) for _ in range(rng.randint(1, 8)))
                  for _ in range(20)]
        for coeffs in polys:
            p = Polynomial(coeffs)
            value = p.evaluate(x)
            assert type(value) is Fraction
            assert value == fraction_horner(p.coeffs, F(x))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Polynomial(())
