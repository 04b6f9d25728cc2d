"""Graph model, Laplacian/Kirchhoff construction and structural transforms."""

import random
from fractions import Fraction

import pytest

from forestmatrix import (
    Arc,
    GraphValidationError,
    Multidigraph,
    Multigraph,
    SquareMatrix,
    contract,
    floatops,
    forest_matrix,
    kirchhoff,
    laplacian,
    linalg,
    merge_parallel,
    to_bidirected,
)
from forestmatrix.graphs import _scaled_rows
from helpers import fraction_graph_matrix, random_multidigraph, random_multigraph, reversed_digraph

F = Fraction

# Denominators up to 12, negative weights and zero.
TWELFTHS_POOL = tuple(F(a, b) for a in range(-12, 13) for b in range(1, 13))

# Sums of these are exact in binary64, so a float matrix can equal an exact one.
DYADIC_POOL = tuple(F(x) for x in ("1", "-1", "2", "-2", "1/2", "-1/2", "3/4", "-3/4", "0"))


def cancelling_graphs(directed: bool, seed: int, pool=TWELFTHS_POOL):
    """Graphs on 0 and 1 vertices, then seeded multigraphs, each second one with
    an instance and a parallel one of the opposite weight (a pair summing to 0)."""
    kind = Multidigraph if directed else Multigraph
    yield kind(0)
    yield kind(1)
    rng = random.Random(seed)
    make = random_multidigraph if directed else random_multigraph
    for index in range(60):
        g = make(rng, 2, 7, 12, pool)
        if index % 2:
            u = rng.randrange(g.n)
            v = (u + rng.randrange(1, g.n)) % g.n
            w = rng.choice(pool)
            g = kind(g.n, g.instances + ((u, v, w), (u, v, -w)))
        yield g


@pytest.mark.parametrize("directed", [False, True], ids=["laplacian", "kirchhoff"])
def test_integer_row_sums_match_fraction_accumulation(directed):
    build = kirchhoff if directed else laplacian
    for g in cancelling_graphs(directed, seed=6):
        matrix = build(g)
        assert matrix == fraction_graph_matrix(g)
        assert all(type(x) is Fraction for row in matrix.entries for x in row)


@pytest.mark.parametrize("directed", [False, True], ids=["laplacian", "kirchhoff"])
def test_scaled_rows_match_the_matrix_route(directed):
    # the kernels' integer rows of W = lam*I + L, summed from the arc list, are
    # the rows linalg._integer_rows takes from W's Fractions
    pool = tuple(F(x) for x in ("1", "-1", "2", "1/2", "-3/2", "1/3", "5/12", "0"))
    for g in cancelling_graphs(directed, seed=7, pool=pool):
        for lam in (0, 1, 2, F(1, 3), F(-3, 2)):
            w = forest_matrix(fraction_graph_matrix(g), lam)
            assert _scaled_rows(g, lam) == linalg._integer_rows(w.entries)


@pytest.mark.parametrize("directed", [False, True], ids=["laplacian", "kirchhoff"])
def test_float_builder_equals_exact_builder(directed):
    build = kirchhoff if directed else laplacian
    for g in cancelling_graphs(directed, seed=9, pool=DYADIC_POOL):
        array = floatops.graph_matrix(g)
        assert array.shape == (g.n, g.n)
        assert array.tolist() == [[float(x) for x in row] for row in build(g).entries]


class TestConstruction:
    def test_self_loop_rejected(self):
        with pytest.raises(GraphValidationError):
            Multigraph(2, ((0, 0, 1),))
        with pytest.raises(GraphValidationError):
            Multidigraph(2, ((1, 1, 1),))

    def test_vertex_out_of_range(self):
        with pytest.raises(GraphValidationError):
            Multigraph(2, ((0, 2, 1),))
        with pytest.raises(GraphValidationError):
            Multidigraph(2, ((-1, 0, 1),))

    def test_bool_vertex_ids_rejected(self):
        with pytest.raises(GraphValidationError):
            Multigraph(2, ((False, True, 1),))
        with pytest.raises(GraphValidationError):
            Multidigraph(2, ((0, True, 1),))

    def test_negative_vertex_count(self):
        with pytest.raises(GraphValidationError):
            Multigraph(-1)

    def test_zero_weight_instances_kept(self):
        g = Multigraph(2, ((0, 1, 0),))
        assert len(g.edges) == 1 and g.edges[0].w == 0

    def test_float_weight_rejected(self):
        with pytest.raises(TypeError):
            Multigraph(2, ((0, 1, 0.5),))

    def test_weights_coerced_to_fraction(self):
        g = Multidigraph(2, ((0, 1, "2/4"),))
        assert g.arcs[0].w == F(1, 2)


class TestLaplacian:
    def test_single_edge(self):
        g = Multigraph(2, ((0, 1, 1),))
        assert laplacian(g) == SquareMatrix(((1, -1), (-1, 1)))

    def test_weighted_triangle(self):
        g = Multigraph(3, ((0, 1, 2), (1, 2, 1), (0, 2, 1)))
        assert laplacian(g) == SquareMatrix(((3, -2, -1), (-2, 3, -1), (-1, -1, 2)))

    def test_parallel_edges_sum(self):
        g = Multigraph(2, ((0, 1, 1), (0, 1, 1)))
        assert laplacian(g) == SquareMatrix(((2, -2), (-2, 2)))

    def test_symmetric_zero_row_sums_random(self):
        rng = random.Random(2)
        for _ in range(25):
            lap = laplacian(random_multigraph(rng))
            assert lap.is_symmetric()
            assert all(s == 0 for s in lap.row_sums())


class TestKirchhoff:
    def test_single_arc(self):
        dg = Multidigraph(2, ((0, 1, 1),))
        assert kirchhoff(dg) == SquareMatrix(((0, 0), (-1, 1)))

    def test_converging_arcs(self):
        dg = Multidigraph(3, ((0, 1, 1), (2, 1, 2)))
        assert kirchhoff(dg) == SquareMatrix(((0, 0, 0), (-1, 3, -2), (0, 0, 0)))

    def test_directed_cycle(self):
        dg = Multidigraph(3, ((0, 1, 1), (1, 2, 1), (2, 0, 1)))
        assert kirchhoff(dg) == SquareMatrix(((1, 0, -1), (-1, 1, 0), (0, -1, 1)))

    def test_zero_row_sums_random(self):
        rng = random.Random(3)
        for _ in range(25):
            k = kirchhoff(random_multidigraph(rng))
            assert all(s == 0 for s in k.row_sums())


class TestMergeParallel:
    def test_parallel_arcs_sum(self):
        dg = Multidigraph(2, ((0, 1, F(2, 3)), (0, 1, F(1, 3))))
        merged = merge_parallel(dg)
        assert merged.arcs == (Arc(0, 1, F(1)),)

    def test_simple_digraph_unchanged(self):
        dg = Multidigraph(3, ((0, 1, 1), (1, 2, 2)))
        assert merge_parallel(dg).arcs == dg.arcs

    def test_cancelling_weights_keep_zero_arc(self):
        dg = Multidigraph(2, ((0, 1, 1), (0, 1, -1)))
        assert merge_parallel(dg).arcs == (Arc(0, 1, F(0)),)

    def test_idempotent(self):
        rng = random.Random(4)
        for _ in range(20):
            dg = random_multidigraph(rng)
            once = merge_parallel(dg)
            assert merge_parallel(once) == once

    def test_undirected_merges_unordered_pairs(self):
        g = Multigraph(2, ((0, 1, 1), (1, 0, 2)))
        assert merge_parallel(g).edges == ((0, 1, F(3)),)

    def test_matrix_invariant_under_merge(self):
        rng = random.Random(5)
        for _ in range(20):
            g = random_multigraph(rng)
            assert laplacian(merge_parallel(g)) == laplacian(g)
            dg = random_multidigraph(rng)
            assert kirchhoff(merge_parallel(dg)) == kirchhoff(dg)


class TestContract:
    def test_directed_cycle_two_vertices(self):
        dg = Multidigraph(3, ((0, 1, 1), (1, 2, 1), (2, 0, 1)))
        contracted, star = contract(dg, (0, 2))
        assert contracted.n == 2 and star == 0
        # 0->1 survives as star->1, 1->2 becomes 1->star, 2->0 is internal
        assert sorted(contracted.arcs) == [Arc(0, 1, F(1)), Arc(1, 0, F(1))]

    def test_single_vertex_is_identity(self):
        dg = Multidigraph(3, ((0, 1, 1), (1, 2, 2)))
        contracted, star = contract(dg, (1,))
        assert contracted == dg and star == 1

    def test_empty_set_rejected(self):
        with pytest.raises(GraphValidationError):
            contract(Multidigraph(2), ())

    def test_minor_identity(self):
        # deleting the merged vertex from the contraction's Kirchhoff matrix
        # reproduces the original matrix minus the whole merged set
        rng = random.Random(6)
        for _ in range(30):
            dg = random_multidigraph(rng, n_min=2, n_max=5)
            size = rng.randint(1, dg.n)
            phi = tuple(sorted(rng.sample(range(dg.n), size)))
            contracted, star = contract(dg, phi)
            lhs = kirchhoff(contracted).delete_rows_cols((star,))
            rhs = kirchhoff(dg).delete_rows_cols(phi)
            assert lhs == rhs


class TestReverse:
    def test_single_arc(self):
        dg = Multidigraph(2, ((0, 1, 1),))
        assert reversed_digraph(dg).arcs == (Arc(1, 0, F(1)),)

    def test_involution(self):
        rng = random.Random(7)
        for _ in range(20):
            dg = random_multidigraph(rng)
            assert reversed_digraph(reversed_digraph(dg)) == dg


class TestToBidirected:
    def test_single_edge(self):
        g = Multigraph(2, ((0, 1, 1),))
        assert to_bidirected(g).arcs == (Arc(0, 1, F(1)), Arc(1, 0, F(1)))

    def test_arcs_interleave_in_edge_order(self):
        # edge e is arcs 2e and 2e + 1, which the oracle maps back as arc >> 1
        g = Multigraph(3, ((0, 1, 1), (1, 2, F(1, 2)), (0, 1, 3), (2, 0, 0), (0, 2, 0)))
        assert to_bidirected(g).arcs == (
            Arc(0, 1, F(1)), Arc(1, 0, F(1)),
            Arc(1, 2, F(1, 2)), Arc(2, 1, F(1, 2)),
            Arc(0, 1, F(3)), Arc(1, 0, F(3)),
            Arc(2, 0, F(0)), Arc(0, 2, F(0)),
            Arc(0, 2, F(0)), Arc(2, 0, F(0)),
        )

    def test_kirchhoff_equals_laplacian(self):
        rng = random.Random(8)
        for _ in range(25):
            g = random_multigraph(rng)
            assert kirchhoff(to_bidirected(g)) == laplacian(g)

    def test_edgeless(self):
        assert to_bidirected(Multigraph(3)).arcs == ()
