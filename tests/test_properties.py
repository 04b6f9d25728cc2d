"""Property-based invariants over randomly generated matrices and graphs."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from forestmatrix import (
    Multidigraph,
    Multigraph,
    SingularMatrixError,
    SquareMatrix,
    accessibility,
    contract,
    forest_det,
    forest_matrix,
    graph_matrix,
    kirchhoff,
    laplacian,
    merge_parallel,
    to_bidirected,
)
from helpers import diag, is_inverse, leibniz_det

F = Fraction

rationals = st.builds(F, st.integers(-4, 4), st.integers(1, 4))


def matrices(max_n=4, min_n=0):
    return st.integers(min_n, max_n).flatmap(
        lambda n: st.lists(
            st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n
        )
    ).map(lambda rows: SquareMatrix(tuple(tuple(r) for r in rows)))


@st.composite
def multigraphs(draw, max_n=5, max_edges=8):
    n = draw(st.integers(1, max_n))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1]
    )
    edges = draw(st.lists(st.tuples(pairs, rationals), max_size=max_edges))
    return Multigraph(n, tuple((u, v, w) for (u, v), w in edges))


@st.composite
def multidigraphs(draw, max_n=5, max_arcs=8):
    n = draw(st.integers(1, max_n))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1]
    )
    arcs = draw(st.lists(st.tuples(pairs, rationals), max_size=max_arcs))
    return Multidigraph(n, tuple((t, h, w) for (t, h), w in arcs))


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_det_matches_permutation_expansion(m):
    assert m.det() == leibniz_det(m)


@settings(max_examples=60, deadline=None)
@given(matrices(min_n=1))
def test_adjugate_identity_holds_even_when_singular(m):
    assert m @ m.adjugate() == diag(m.n, m.det())


@settings(max_examples=60, deadline=None)
@given(matrices(min_n=1))
def test_inverse_identity(m):
    assume(m.det() != 0)
    assert m @ m.inverse() == SquareMatrix.identity(m.n)


@st.composite
def zero_diagonal_matrices(draw, max_n=5):
    """Symmetric or not, with some diagonal entries zero: the zero pivots at
    which inverse's elimination restarts on full rows or swaps rows."""
    n = draw(st.integers(1, max_n))
    rows = draw(st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n))
    if draw(st.booleans()):
        rows = [[rows[min(r, c)][max(r, c)] for c in range(n)] for r in range(n)]
    for r in draw(st.sets(st.integers(0, n - 1), min_size=1)):
        rows[r][r] = F(0)
    return SquareMatrix(tuple(map(tuple, rows)))


@settings(max_examples=60, deadline=None)
@given(zero_diagonal_matrices())
def test_inverse_is_adjugate_over_det(m):
    if m.det() == 0:
        with pytest.raises(SingularMatrixError):
            m.inverse()
        return
    assert is_inverse(m, m.inverse())


@settings(max_examples=40, deadline=None)
@given(matrices())
def test_charpoly_coefficients_are_principal_minor_sums(m):
    poly = m.char_poly()
    for k in range(m.n + 1):
        assert poly.coeffs[k] == m.principal_minor_sum(k)


@st.composite
def matrix_pairs(draw, max_n=3):
    n = draw(st.integers(0, max_n))
    rows = st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n)
    return (
        SquareMatrix(tuple(tuple(r) for r in draw(rows))),
        SquareMatrix(tuple(tuple(r) for r in draw(rows))),
    )


@settings(max_examples=40, deadline=None)
@given(matrix_pairs())
def test_det_multiplicative(pair):
    a, b = pair
    assert (a @ b).det() == a.det() * b.det()


@settings(max_examples=50, deadline=None)
@given(multigraphs())
def test_laplacian_symmetric_with_zero_row_sums(g):
    lap = laplacian(g)
    assert lap.is_symmetric()
    assert all(s == 0 for s in lap.row_sums())


@settings(max_examples=50, deadline=None)
@given(multidigraphs())
def test_kirchhoff_zero_row_sums(dg):
    assert all(s == 0 for s in kirchhoff(dg).row_sums())


@settings(max_examples=50, deadline=None)
@given(multigraphs())
def test_bidirected_kirchhoff_equals_laplacian(g):
    assert kirchhoff(to_bidirected(g)) == laplacian(g)


@settings(max_examples=50, deadline=None)
@given(multidigraphs())
def test_merge_parallel_preserves_matrix_and_is_idempotent(dg):
    merged = merge_parallel(dg)
    assert kirchhoff(merged) == kirchhoff(dg)
    assert merge_parallel(merged) == merged


@settings(max_examples=40, deadline=None)
@given(multidigraphs(), st.data())
def test_contract_relabeling_preserves_minor(dg, data):
    phi = data.draw(
        st.sets(st.integers(0, dg.n - 1), min_size=1, max_size=dg.n), label="phi"
    )
    contracted, star = contract(dg, phi)
    assert kirchhoff(contracted).delete_rows_cols((star,)) == kirchhoff(dg).delete_rows_cols(phi)


@settings(max_examples=40, deadline=None)
@given(multigraphs(max_n=4, max_edges=6))
def test_accessibility_rows_sum_to_one(g):
    assume(forest_det(g) != 0)
    q = accessibility(g).matrix
    assert all(s == 1 for s in q.row_sums())
    assert q @ forest_matrix(graph_matrix(g)) == SquareMatrix.identity(g.n)


@settings(max_examples=40, deadline=None)
@given(multidigraphs(max_n=4, max_arcs=6))
def test_forest_det_invariant_under_merge(dg):
    assert forest_det(dg) == forest_det(merge_parallel(dg))
