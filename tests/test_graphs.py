"""Graph model, Laplacian/Kirchhoff construction and structural transforms."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from forestmatrix import (
    Arc,
    GraphValidationError,
    Multidigraph,
    Multigraph,
    SquareMatrix,
    contract,
    forest_det,
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
    pytest.importorskip("numpy")
    from forestmatrix import floatops

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

    def test_equals_the_validated_build(self):
        # contract relabels arcs of a validated digraph without checking them
        # again; its value must be the one the validating constructor builds
        rng = random.Random(28)
        for _ in range(12):
            dg = random_multidigraph(rng, n_min=2, n_max=6, max_arcs=12, pool=TWELFTHS_POOL)
            for size in range(1, dg.n + 1):
                for vs in combinations(range(dg.n), size):
                    kept = [v for v in range(dg.n) if v == vs[0] or v not in vs]
                    label = {v: kept.index(min(vs) if v in vs else v) for v in range(dg.n)}
                    arcs = tuple((label[t], label[h], w) for t, h, w in dg.arcs if label[t] != label[h])
                    expected = Multidigraph(dg.n - size + 1, arcs)
                    contracted, star = contract(dg, vs)
                    assert (contracted, star) == (expected, label[vs[0]])
                    assert hash(contracted) == hash(expected) and repr(contracted) == repr(expected)
                    assert all(type(a) is Arc for a in contracted.arcs)

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


@pytest.mark.parametrize("call, message", [
    (lambda: contract(Multidigraph(3, ((0, 1, 1),)), [0, 3]), "vertex 3 out of range for n=3"),
    (lambda: contract(Multidigraph(3, ((0, 1, 1),)), [-1]), "vertex -1 out of range for n=3"),
    (lambda: Multidigraph(-1), "vertex count must be >= 0, got -1"),
    # bool is an int subclass: True must not be read as 1 vertex
    (lambda: Multidigraph(True), "vertex count must be an integer, got True"),
    (lambda: Multigraph(False), "vertex count must be an integer, got False"),
    (lambda: Multigraph(2.0, ((0, 1, 1),)), "vertex count must be an integer, got 2.0"),
    (lambda: Multidigraph("3"), "vertex count must be an integer, got '3'"),
], ids=["contract-3", "contract-minus-1", "negative-vertex-count", "bool-vertex-count-digraph",
        "bool-vertex-count-graph", "float-vertex-count", "str-vertex-count"])
def test_refused_input_is_a_validation_error(call, message):
    with pytest.raises(GraphValidationError) as raised:
        call()
    assert str(raised.value) == message


def test_numpy_integer_vertex_count_is_an_int():
    np = pytest.importorskip("numpy")
    for kind in (Multigraph, Multidigraph):
        g = kind(np.int64(3), ((0, 1, 1),))
        assert type(g.n) is int and g == kind(3, ((0, 1, 1),))


def test_numpy_integer_endpoints_are_ints():
    np = pytest.importorskip("numpy")
    for kind in (Multigraph, Multidigraph):
        g = kind(3, ((np.int64(0), np.int32(1), 1), (2, np.uint8(1), 2)))
        assert all(type(v) is int for a in g.instances for v in a[:2])
        assert g == kind(3, ((0, 1, 1), (2, 1, 2)))


def test_numpy_integer_values_stay_exact():
    # a Fraction of numpy int64s would wrap around in the kernels
    np = pytest.importorskip("numpy")
    big = 2**62
    g = Multigraph(2, ((0, 1, np.int64(big)),))
    assert type(g.edges[0].w.numerator) is int
    assert forest_det(g) == forest_det(Multigraph(2, ((0, 1, big),))) == 2 * big + 1
    assert forest_det(Multigraph(2, ((0, 1, 3),)), lam=np.int64(2**40)) == 2**80 + 6 * 2**40
    assert type(SquareMatrix(((np.int32(7),),)).entries[0][0].numerator) is int


def test_numpy_bools_are_refused():
    np = pytest.importorskip("numpy")
    refused = f"refusing bool {np.True_!r}; pass an int, Fraction or string"
    for call, error, message in [
        (lambda: Multigraph(3, ((np.True_, 2, 1),)), GraphValidationError,
         f"edge endpoints must be integers, got ({np.True_!r}, 2)"),
        (lambda: Multidigraph(3, ((0, np.False_, 1),)), GraphValidationError,
         f"arc endpoints must be integers, got (0, {np.False_!r})"),
        (lambda: Multidigraph(np.True_), GraphValidationError, f"vertex count must be an integer, got {np.True_!r}"),
        (lambda: Multigraph(2, ((0, 1, np.True_),)), TypeError, refused),
        (lambda: forest_matrix(laplacian(Multigraph(2)), np.True_), TypeError, refused),
        (lambda: SquareMatrix(((np.True_,),)), TypeError, refused),
        (lambda: SquareMatrix(((1, 0), (0, 1))).cofactor(np.True_, 0), TypeError,
         f"index {np.True_!r} is a bool, not an integer"),
    ]:
        with pytest.raises(error) as raised:
            call()
        assert str(raised.value) == message


@pytest.mark.parametrize("width", ["float16", "float32", "float64", "longdouble"])
def test_numpy_floats_are_refused(width):
    # float64 is a float subclass; the others are not, but each is an inexact real
    np = pytest.importorskip("numpy")
    x = getattr(np, width)(0.5)
    refused = f"refusing inexact float {x!r}; pass an int, Fraction or string"
    for call in (lambda: Multidigraph(2, ((0, 1, x),)),
                 lambda: forest_det(Multigraph(2, ((0, 1, 1),)), lam=x),
                 lambda: SquareMatrix(((1, x), (0, 1)))):
        with pytest.raises(TypeError) as raised:
            call()
        assert str(raised.value) == refused
