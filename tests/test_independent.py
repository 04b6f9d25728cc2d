"""Exact kernels against references that share no code with linalg.

det_mod and cofactor_mod (helpers) eliminate over the integers mod a prime, so
they reach sizes that the oracle and Leibniz expansion cannot. The sizes cover
the symmetric route's paired Bareiss steps: at n = 10 and 11 a pair is allowed
only in the first steps, at 24 and 64 through the dense tail, with both odd and
even step counts; the dense signed matrices put a zero pivot first in a pair,
second in a pair and first of all.
"""

from fractions import Fraction
from random import Random

import pytest

from forestmatrix import (
    Multigraph,
    SquareMatrix,
    accessibility,
    charpoly_forest_coeffs,
    cofactor_poly,
    forest_cofactor,
    forest_det,
)
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


def seeded_graph(n: int) -> Multigraph:
    """An undirected graph with 3n edges of positive weights, seeded by n."""
    rng = Random(n)
    return Multigraph(n, tuple((*rng.sample(range(n), 2), rng.choice(POSITIVE_POOL)) for _ in range(3 * n)))


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


def freivalds(q, rows, seed: int) -> bool:
    """Whether Q * (W * v) == v mod the prime for a random v."""
    v = [Random(seed).randrange(PRIME) for _ in rows]
    wv = [sum(mod_p(x) * y for x, y in zip(row, v)) % PRIME for row in rows]
    return [sum(mod_p(x) * y for x, y in zip(row, wv)) % PRIME for row in q] == v


@pytest.mark.parametrize("n", SIZES)
def test_forest_det(n):
    g = seeded_graph(n)
    assert mod_p(forest_det(g)) == det_mod(forest_rows(g))


@pytest.mark.parametrize("n", SIZES)
def test_forest_cofactor(n):
    g = seeded_graph(n)
    rows = forest_rows(g)
    i, j = Random(n).sample(range(n), 2)
    for a, b in ((i, j), (j, i), (i, i)):
        assert mod_p(forest_cofactor(g, a, b)) == cofactor_mod(rows, a, b)


@pytest.mark.parametrize("n", SIZES)
def test_accessibility(n):
    g = seeded_graph(n)
    assert freivalds(accessibility(g).matrix.entries, forest_rows(g), n)


def test_polynomials_off_the_nodes():
    # the kernels interpolate through x = 0, 1, ..., n; these points are none of
    # them. On a complete graph the first two pivots are adjacent, so they pair.
    n = 12
    rng = Random(n)
    g = Multigraph(n, tuple((u, v, rng.choice(POSITIVE_POOL)) for u in range(n) for v in range(u + 1, n)))
    lap = fraction_graph_matrix(g).entries
    charpoly = charpoly_forest_coeffs(g).coeffs
    cofactor = cofactor_poly(g, 3, 7).coeffs
    for x in (Fraction(-5), Fraction(1, 2), Fraction(17, 3)):
        assert horner_mod(charpoly, x) == det_mod(shifted(lap, x))
        assert horner_mod(cofactor, x) == cofactor_mod(shifted(lap, x), 3, 7)


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


# first pivot zero; second pivot of the pair at step 2 zero (c0 = 0); first
# pivot of the pair at step 4 zero, after two pairs
@pytest.mark.parametrize("zero_minor", [1, 4, 5], ids=["first", "second-of-pair", "first-of-pair"])
def test_zero_pivot_in_a_pair(zero_minor, routes):
    n = 14
    m = dense_symmetric(n, zero_minor, seed=zero_minor)
    rows = [list(row) for row in m.entries]
    det = det_mod(rows)
    assert det and mod_p(m.det()) == det
    assert routes == [{"restart", "swap"}]
    for i, j in ((n - 1, n - 2), (n - 2, n - 1), (n - 1, n - 1), (n - 2, n - 2)):
        assert mod_p(m.cofactor(i, j)) == cofactor_mod(rows, i, j)
    assert freivalds(m.inverse().entries, rows, zero_minor)
