"""The kernel's set-up against the same steps read from all n**2 entries.

_scaled_rows takes each row's gcd over the columns its arc list fills,
_pivot_order builds the column patterns from the row patterns, and _forward
gathers the permuted rows with one itemgetter; helpers' dense_scaled_rows,
dense_pivot_order and dense_permuted read every entry instead. Both must give
the same rows, multipliers, order, symmetry flag and permuted copy, on graphs
of both kinds (parallel instances, signed weights that cancel to a zero entry,
vertices with no arc in) and on dense signed matrices with zero rows and
columns.
"""

from fractions import Fraction
from random import Random

import pytest

from forestmatrix import Multidigraph, Multigraph, linalg
from forestmatrix.graphs import _scaled_rows
from helpers import WEIGHT_POOL, dense_permuted, dense_pivot_order, dense_scaled_rows

SIZES = (0, 1, 2, 3, 16, 64, 128)
LAMS = (0, 1, Fraction(1, 3), Fraction(-3, 2))


def setup_graph(kind, n: int):
    """2n signed instances, seeded by n, plus one parallel to the first and, on
    n >= 3, a pair of opposite weights 0 -> 2 whose entry cancels to 0; if
    directed, vertex n - 1 has no arc in."""
    rng = Random(n)
    instances = []
    for _ in range(2 * n if n >= 2 else 0):
        tail, head = rng.sample(range(n), 2)
        if kind is Multidigraph and head == n - 1:
            tail, head = head, tail
        if {tail, head} != {0, 2}:
            instances.append((tail, head, rng.choice(WEIGHT_POOL)))
    if instances:
        instances.append(instances[0][:2] + (rng.choice(WEIGHT_POOL),))
    if n >= 3:
        w = rng.choice(WEIGHT_POOL)
        instances += [(0, 2, w), (0, 2, -w)]
    return kind(n, tuple(instances))


GRAPHS = [pytest.param(kind, n, id=f"{'directed' if kind is Multidigraph else 'undirected'}-{n}")
          for kind in (Multigraph, Multidigraph) for n in SIZES]


def dense_matrix(n: int, symmetric: bool, seed: int) -> list[list[Fraction]]:
    """Signed weights, some of them 0, with row 1 zero and column 1 zero if
    symmetric, column n - 1 if not."""
    rng = Random(seed)
    pool = WEIGHT_POOL + (Fraction(0),) * 3
    m = [[rng.choice(pool) for _ in range(n)] for _ in range(n)]
    if symmetric:
        m = [[m[min(r, c)][max(r, c)] for c in range(n)] for r in range(n)]
    for k in range(n):
        m[1][k] = 0
        if symmetric:
            m[k][1] = 0
        else:
            m[k][n - 1] = 0
    return m


def lasts(n: int):
    """Orders ending with no index, with 0, and with n - 1 then 0."""
    yield ()
    if n:
        yield (0,)
    if n > 1:
        yield (n - 1, 0)


def check_setup(rows, mults, runs: bool) -> None:
    """_pivot_order and the copy _forward starts from against the dense scans;
    if `runs`, also whole runs against runs on the dense copy in its order."""
    n = len(rows)
    for last in lasts(n):
        order, symmetric = linalg._pivot_order(rows, mults, last)
        assert (order, symmetric) == dense_pivot_order(rows, mults, last)
        for shift in (0, 2):
            # no step taken: the run returns the permuted copy itself
            b, d, *_ = linalg._forward(rows, mults, order, symmetric, 0, shift)
            assert (b, d) == dense_permuted(rows, mults, order, shift)
            if runs and n:
                b, d = dense_permuted(rows, mults, order)
                ran = linalg._forward(rows, mults, order, symmetric, n - 1, shift)
                assert ran == linalg._forward(b, d, list(range(n)), symmetric, n - 1, shift)


@pytest.mark.parametrize("kind, n", GRAPHS)
def test_graph_setup_matches_dense_scans(kind, n):
    g = setup_graph(kind, n)
    for lam in LAMS:
        rows, mults = _scaled_rows(g, lam)
        assert (rows, mults) == dense_scaled_rows(g, lam)
        check_setup(rows, mults, runs=lam == 1 and n <= 64)


def test_setup_graphs_cover_their_cases():
    # a zero row (directed, lam = 0), a cancelled entry, a parallel pair
    d = setup_graph(Multidigraph, 16)
    rows, mults = _scaled_rows(d)
    assert not any(rows[15]) and mults[15] == 1
    assert rows[2][0] == 0 and sum(t == 0 and h == 2 for t, h, _ in d.arcs) >= 2
    assert len({(t, h) for t, h, _ in d.arcs}) < len(d.arcs)
    assert linalg._pivot_order(rows, mults, ())[1] is False
    assert linalg._pivot_order(*_scaled_rows(setup_graph(Multigraph, 16)), ())[1] is True


@pytest.mark.parametrize("symmetric", [False, True], ids=["signed", "symmetric"])
@pytest.mark.parametrize("n", [2, 3, 5, 12])
def test_matrix_setup_matches_dense_scans(n, symmetric):
    m = dense_matrix(n, symmetric, seed=n)
    rows, mults = linalg._integer_rows(m)
    assert not any(rows[1]) and not any(row[1 if symmetric else n - 1] for row in rows)
    assert linalg._pivot_order(rows, mults, ())[1] is symmetric or n == 2
    check_setup(rows, mults, runs=True)
