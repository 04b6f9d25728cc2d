"""Exact kernels against references that share no code with linalg.

det_mod and cofactor_mod (helpers) eliminate over the integers mod a prime, so
they reach sizes that the oracle and Leibniz expansion cannot. The undirected
sizes cover the symmetric route's paired Bareiss steps: at n = 10 and 11 a pair
is allowed only in the first steps, at 24 and 64 through the dense tail, with
both odd and even step counts; the dense signed symmetric matrices put a zero
pivot first in a pair, second in a pair and first of all. Directed graphs, up
to n = 128, and dense signed matrices that differ from their transpose, with a
zero pivot first, mid-run and at the last step, run on full rows, whose
entries each keep their own level. For positive weights the accessibility
results are checked exactly up to n = 64: Q = W**-1 is stochastic, symmetric
for a graph, and strictly largest on the diagonal of each column.
"""

from fractions import Fraction
from random import Random

import pytest

from forestmatrix import (
    Multidigraph,
    Multigraph,
    SquareMatrix,
    accessibility,
    charpoly_forest_coeffs,
    cofactor_poly,
    forest_cofactor,
    forest_det,
    linalg,
)
from forestmatrix.graphs import _scaled_rows
from helpers import (
    POSITIVE_POOL,
    PRIME,
    WEIGHT_POOL,
    cofactor_mod,
    det_mod,
    fraction_graph_matrix,
    leibniz_det,
    mod_p,
)

SIZES = (10, 11, 24, 64)
DIRECTED_SIZES = (10, 24, 64, 128)
GRAPHS = [pytest.param(Multigraph, n, id=str(n)) for n in SIZES] + [
    pytest.param(Multidigraph, n, id=f"directed-{n}") for n in DIRECTED_SIZES
]


def seeded_graph(n: int, kind=Multigraph, seed: int = 0):
    """A graph (or digraph) with 3n instances of positive weights, seeded by n
    and seed."""
    rng = Random(n + 1000 * seed)
    return kind(n, tuple((*rng.sample(range(n), 2), rng.choice(POSITIVE_POOL)) for _ in range(3 * n)))


def shifted(rows, x) -> list[list[Fraction]]:
    """x * I + the matrix of `rows`."""
    return [[e + x * (r == c) for c, e in enumerate(row)] for r, row in enumerate(rows)]


def forest_rows(graph, lam=1) -> list[list[Fraction]]:
    return shifted(fraction_graph_matrix(graph).entries, lam)


def horner_mod(coeffs, x) -> int:
    value, point = 0, mod_p(x)
    for c in reversed(coeffs):
        value = (value * point + mod_p(c)) % PRIME
    return value


def freivalds(q, rows, seed: int, scale=1) -> bool:
    """Whether Q * (W * v) == scale * v mod the prime for a random v: Q = W**-1
    for scale 1, Q = adj W for scale det W."""
    v = [Random(seed).randrange(PRIME) for _ in rows]
    wv = [sum(mod_p(x) * y for x, y in zip(row, v)) % PRIME for row in rows]
    s = mod_p(scale)
    return [sum(mod_p(x) * y for x, y in zip(row, wv)) % PRIME for row in q] == [s * y % PRIME for y in v]


@pytest.mark.parametrize("kind, n", GRAPHS)
def test_forest_det(kind, n):
    g = seeded_graph(n, kind)
    assert mod_p(forest_det(g)) == det_mod(forest_rows(g))


@pytest.mark.parametrize("kind, n", GRAPHS)
def test_forest_cofactor(kind, n):
    g = seeded_graph(n, kind)
    rows = forest_rows(g)
    i, j = Random(n).sample(range(n), 2)
    for a, b in ((i, j), (j, i), (i, i)):
        assert mod_p(forest_cofactor(g, a, b)) == cofactor_mod(rows, a, b)


@pytest.mark.parametrize("kind, n", GRAPHS)
def test_accessibility(kind, n):
    g = seeded_graph(n, kind)
    assert freivalds(accessibility(g).matrix.entries, forest_rows(g), n)


def check_polynomials_off_the_nodes(g):
    # the kernels interpolate through x = 0, 1, ..., n; these points are none of them
    lap = fraction_graph_matrix(g).entries
    charpoly = charpoly_forest_coeffs(g).coeffs
    cofactor = cofactor_poly(g, 3, 7).coeffs
    for x in (Fraction(-5), Fraction(1, 2), Fraction(17, 3)):
        assert horner_mod(charpoly, x) == det_mod(shifted(lap, x))
        assert horner_mod(cofactor, x) == cofactor_mod(shifted(lap, x), 3, 7)


def test_polynomials_off_the_nodes():
    # on a complete graph the first two pivots are adjacent, so they pair
    n = 12
    rng = Random(n)
    check_polynomials_off_the_nodes(
        Multigraph(n, tuple((u, v, rng.choice(POSITIVE_POOL)) for u in range(n) for v in range(u + 1, n)))
    )


def test_directed_polynomials_off_the_nodes():
    check_polynomials_off_the_nodes(seeded_graph(12, Multidigraph))


def dense_symmetric(n: int, zero_minor: int, seed: int) -> SquareMatrix:
    """A symmetric matrix with signed weights and no zero off the diagonal, so
    its pivot order is 0, 1, ..., n - 1, whose leading minor of order
    `zero_minor` is 0 and whose smaller leading minors are not: the pivot
    p_(zero_minor - 1) is 0. Its last diagonal entry of that minor is solved
    for, as the minor is linear in it."""
    rng = Random(seed)
    m = [[Fraction(0)] * n for _ in range(n)]
    for r in range(n):
        for c in range(r, n):
            m[r][c] = m[c][r] = rng.choice(WEIGHT_POOL)
    s = zero_minor - 1

    def leading(k):
        return leibniz_det(SquareMatrix(tuple(tuple(row[:k]) for row in m[:k])))

    m[s][s] = 0
    m[s][s] = -leading(s + 1) / leading(s)
    assert leading(s + 1) == 0 and all(leading(k) for k in range(1, s + 1))
    return SquareMatrix(tuple(map(tuple, m)))


def dense_signed(n: int, zero_minor: int, seed: int) -> SquareMatrix:
    """A matrix with signed weights and no zero off the diagonal, so its pivot
    order is 0, 1, ..., n - 1, that differs from its transpose, whose leading
    minor of order `zero_minor` is 0 and whose smaller leading minors and
    determinant are not: the pivot p_(zero_minor - 1) is 0. Its first entry is
    0 for zero_minor = 1; otherwise row zero_minor - 1 starts as row 0 times a
    weight, up to column zero_minor - 1."""
    rng = Random(seed)
    s = zero_minor - 1
    while True:
        m = [[rng.choice(WEIGHT_POOL) for _ in range(n)] for _ in range(n)]
        c = rng.choice(WEIGHT_POOL)
        m[s][:s + 1] = [c * x for x in m[0][:s + 1]] if s else [Fraction(0)]
        if det_mod(m) and all(det_mod([row[:k] for row in m[:k]]) for k in range(1, s + 1)):
            assert m != [list(col) for col in zip(*m)]
            return SquareMatrix(tuple(map(tuple, m)))


def check_after_a_zero_pivot(m: SquareMatrix, route: set, seed: int, routes: list) -> None:
    """det, cofactors around the last pivots, a Freivalds inverse and adjugate
    of m against the mod-prime references; the det run takes `route`."""
    n = m.n
    rows = [list(row) for row in m.entries]
    det = det_mod(rows)
    assert det and mod_p(m.det()) == det
    assert routes == [route]
    for i, j in ((n - 1, n - 2), (n - 2, n - 1), (n - 1, n - 1), (n - 2, n - 2)):
        assert mod_p(m.cofactor(i, j)) == cofactor_mod(rows, i, j)
    assert freivalds(m.inverse().entries, rows, seed)
    assert freivalds(m.adjugate().entries, rows, seed, scale=m.det())


# first pivot zero; second pivot of the pair at step 2 zero (c0 = 0); first
# pivot of the pair at step 4 zero, after two pairs
@pytest.mark.parametrize("zero_minor", [1, 4, 5], ids=["first", "second-of-pair", "first-of-pair"])
def test_zero_pivot_in_a_pair(zero_minor, routes):
    check_after_a_zero_pivot(dense_symmetric(14, zero_minor, seed=zero_minor), {"restart", "swap"}, zero_minor, routes)


# a zero pivot on full rows at the first step, mid-run and at the last step
# of the det run (step n - 2)
@pytest.mark.parametrize("zero_minor", [1, 7, 13], ids=["first", "mid-run", "last-step"])
def test_zero_pivot_on_full_rows(zero_minor, routes):
    check_after_a_zero_pivot(dense_signed(14, zero_minor, seed=zero_minor), {"swap"}, zero_minor, routes)


def full_row_sources():
    """(rows, mults) for full-row runs: seeded digraphs and the signed
    matrices with zero pivots, at most 24 rows."""
    for n in (10, 24):
        yield pytest.param(_scaled_rows(seeded_graph(n, Multidigraph)), id=f"directed-{n}")
    for zero_minor, name in ((1, "first"), (7, "mid-run"), (13, "last-step")):
        m = dense_signed(14, zero_minor, seed=zero_minor)
        yield pytest.param(linalg._integer_rows(m.entries), id=f"zero-pivot-{name}")


@pytest.mark.parametrize("source", full_row_sources())
def test_pivots_are_leading_minors(source):
    # pivot p_k is the leading (k + 1)-minor of P * B, B the permuted scaled
    # rows and P the signed permutation of the swaps, and row `steps`, read at
    # its level, holds the minors that border the leading steps-block
    rows, mults = source
    n = len(rows)
    order, _ = linalg._pivot_order(rows, mults, ())
    completed = 0
    for shift in (0, 1, -2):
        for steps in (n - 1, n - 2):
            run = linalg._forward(rows, mults, order, False, steps, shift)
            if isinstance(run, int):
                continue
            completed += 1
            b, _, pivots, level, swaps = run
            pb = [[rows[r][c] + shift * mults[r] * (r == c) for c in order] for r in order]
            for k, r in swaps:
                pb[k], pb[r] = [-x for x in pb[r]], pb[k]
            assert len(pivots) == steps + 1
            for k in range(1, steps + 1):
                assert pivots[k] % PRIME == det_mod([row[:k] for row in pb[:k]])
            for c in range(steps, n):
                entry = b[steps][c] * pivots[-1] // level[steps]
                assert entry % PRIME == det_mod([[*row[:steps], row[c]] for row in pb[:steps + 1]])
    assert completed >= 4


@pytest.mark.parametrize("kind", [Multigraph, Multidigraph], ids=["undirected", "directed"])
@pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 24, 64])
def test_accessibility_results(kind, n):
    # with positive weights W = I + L is a strictly row-diagonally-dominant
    # M-matrix: Q = W**-1 is stochastic (rows sum to 1, entries >= 0), symmetric
    # for a graph, and strictly largest on the diagonal of each column. A
    # digraph's Q need not be largest on the diagonal of each row.
    for seed in range(3 if n == 64 else 10):
        g = seeded_graph(n, kind, seed)
        q = accessibility(g).matrix.entries
        assert all(sum(row) == 1 for row in q)
        assert all(x >= 0 for row in q for x in row)
        if kind is Multigraph:
            assert all(q[i][j] == q[j][i] for i in range(n) for j in range(i))
        for j in range(n):
            assert all(q[j][j] > q[i][j] for i in range(n) if i != j)
