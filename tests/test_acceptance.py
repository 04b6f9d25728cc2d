"""Acceptance suite: every gate criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. All equalities are exact (Fraction == Fraction) unless a tolerance is
stated inline; the random suites are seeded and therefore reproducible.
"""

import random
import time
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from forestmatrix import (
    Multidigraph,
    Multigraph,
    SquareMatrix,
    accessibility,
    charpoly_forest_coeffs,
    cofactor_poly,
    contract,
    enum_diverging_forests,
    enum_diverging_trees,
    enum_rooted_forests,
    floatops,
    forest_cofactor,
    forest_det,
    forest_matrix,
    forest_minor,
    graph_matrix,
    matrix_tree_check,
    merge_parallel,
    path_expansion_cofactor,
    set_weight,
    signed_cofactor_poly,
    weight_of,
)
from helpers import (
    POSITIVE_POOL,
    instances_of,
    pair_weight_table,
    random_multidigraph,
    random_multigraph,
    root_of_map,
    root_set_of,
    root_set_weights,
)

F = Fraction
_MODULE_T0 = time.perf_counter()


def report(criterion, detail=""):
    print(f"[acceptance] {criterion}: PASS {detail}".rstrip())


def enum_forests(graph):
    if isinstance(graph, Multidigraph):
        return enum_diverging_forests(graph)
    return enum_rooted_forests(graph)


def oracle_record(graph):
    """(graph, total forest weight, pair-weight table) from one enumeration pass."""
    forests = enum_forests(graph)
    total = set_weight((instances_of(f) for f in forests), graph)
    return graph, total, pair_weight_table(graph, forests)


@pytest.fixture(scope="module")
def undirected_suite():
    rng = random.Random(0xC2F0)
    return [oracle_record(random_multigraph(rng, 2, 6, 10)) for _ in range(200)]


@pytest.fixture(scope="module")
def directed_suite():
    rng = random.Random(0xD161)
    return [oracle_record(random_multidigraph(rng, 2, 5, 10)) for _ in range(200)]


def test_criterion_1_named_fixtures():
    t0 = time.perf_counter()
    single_edge = Multigraph(2, ((0, 1, 1),))
    unit_k3 = Multigraph(3, ((0, 1, 1), (1, 2, 1), (0, 2, 1)))
    single_arc = Multidigraph(2, ((0, 1, 1),))

    assert forest_det(single_edge) == 3
    assert forest_det(unit_k3) == 16
    assert forest_det(single_arc) == 2
    assert accessibility(single_edge).matrix == SquareMatrix(
        ((F(2, 3), F(1, 3)), (F(1, 3), F(2, 3)))
    )
    assert accessibility(single_arc).matrix == SquareMatrix(
        ((1, 0), (F(1, 2), F(1, 2)))
    )
    assert charpoly_forest_coeffs(unit_k3).coeffs == (0, 9, 6, 1)

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report("criterion 1 (named fixtures)", f"in {elapsed:.3f}s")


def test_criterion_2_undirected_oracle_suite(undirected_suite):
    t0 = time.perf_counter()
    for g, total, table in undirected_suite:
        assert forest_det(g) == total
        w = forest_matrix(graph_matrix(g))
        for i in range(g.n):
            for j in range(g.n):
                assert w.cofactor(i, j) == table[i][j]
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report("criterion 2 (undirected det/cofactor oracle, 200 graphs)", f"in {elapsed:.1f}s")


def test_criterion_3_directed_oracle_suite(directed_suite):
    t0 = time.perf_counter()
    for g, total, table in directed_suite:
        assert forest_det(g) == total
        w = forest_matrix(graph_matrix(g))
        for i in range(g.n):
            for j in range(g.n):
                assert w.cofactor(i, j) == table[i][j]
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report("criterion 3 (directed det/cofactor oracle, 200 graphs)", f"in {elapsed:.1f}s")


def test_criterion_4_accessibility_suite(undirected_suite, directed_suite):
    checked = 0
    for g, total, table in undirected_suite + directed_suite:
        if total == 0:
            continue
        checked += 1
        q = accessibility(g).matrix
        w = forest_matrix(graph_matrix(g))
        assert q @ w == SquareMatrix.identity(g.n)
        assert all(s == 1 for s in q.row_sums())
        for i in range(g.n):
            for j in range(g.n):
                assert q.entries[i][j] * total == table[j][i]
    report("criterion 4 (accessibility identities)", f"on {checked} non-singular instances")


def unit_variant(graph):
    if isinstance(graph, Multidigraph):
        return Multidigraph(graph.n, tuple((t, h, 1) for t, h, _ in graph.arcs))
    return Multigraph(graph.n, tuple((u, v, 1) for u, v, _ in graph.edges))


def test_criterion_5_matrix_tree_suite(undirected_suite, directed_suite):
    t0 = time.perf_counter()
    checked = 0
    for g, _, _ in undirected_suite + directed_suite:
        assert matrix_tree_check(g).passed
        assert matrix_tree_check(unit_variant(g)).passed
        checked += 2
    elapsed = time.perf_counter() - t0
    report("criterion 5 (matrix-tree checks incl. unit variants)",
           f"on {checked} graphs in {elapsed:.1f}s")


def split_one_instance(graph, rng):
    """Replace one instance by two parallel instances with the same weight sum."""
    items = list(graph.instances)
    idx = rng.randrange(len(items))
    a, b, w = items[idx]
    part = rng.choice((F(1, 3), F(1, 2), F(2), F(-1, 2)))
    items[idx] = (a, b, w * part)
    items.insert(idx + 1, (a, b, w * (1 - part)))
    if isinstance(graph, Multidigraph):
        return Multidigraph(graph.n, tuple(items))
    return Multigraph(graph.n, tuple(items))


def all_cofactors(graph):
    w = forest_matrix(graph_matrix(graph))
    return [[w.cofactor(i, j) for j in range(graph.n)] for i in range(graph.n)]


def test_criterion_6_lemma_1_merge_split():
    rng = random.Random(0x1E1)
    for trial in range(100):
        maker = random_multidigraph if trial % 2 else random_multigraph
        g = maker(rng, 2, 5, 8)
        variants = [merge_parallel(g)]
        if g.instances:
            variants.append(split_one_instance(g, rng))
        w = forest_matrix(graph_matrix(g))
        cof = all_cofactors(g)
        det = w.det()
        for other in variants:
            assert forest_matrix(graph_matrix(other)) == w
            assert forest_det(other) == det
            assert all_cofactors(other) == cof
    report("criterion 6a (merge/split invariance, 100 instances)")


def test_criterion_6_lemmas_2_3_minors():
    rng = random.Random(0x1E23)
    t0 = time.perf_counter()
    for trial in range(100):
        dg = random_multidigraph(rng, 2, 5, 8)
        lap = graph_matrix(dg)
        buckets = root_set_weights(dg, enum_diverging_forests(dg))
        for size in range(dg.n + 1):
            for phi in combinations(range(dg.n), size):
                minor = forest_minor(dg, phi)
                assert minor == lap.delete_rows_cols(phi).det()
                assert minor == buckets.get(frozenset(phi), F(0))
                if phi:
                    contracted, star = contract(dg, phi)
                    trees = enum_diverging_trees(contracted, star)
                    assert minor == set_weight((t.arcs for t in trees), contracted)
    # undirected analogue of the root-set minors
    for trial in range(100):
        g = random_multigraph(rng, 2, 5, 8)
        buckets = root_set_weights(g, enum_rooted_forests(g))
        for size in range(g.n + 1):
            for phi in combinations(range(g.n), size):
                assert forest_minor(g, phi) == buckets.get(frozenset(phi), F(0))
    elapsed = time.perf_counter() - t0
    report("criterion 6b (principal minors = rooted forests = contractions)",
           f"in {elapsed:.1f}s")


def test_criterion_6_lemma_4_coefficients():
    rng = random.Random(0x1E4)
    for trial in range(100):
        if trial % 2:
            g = random_multidigraph(rng, 2, 5, 10)
        else:
            g = random_multigraph(rng, 2, 6, 10)
        poly = charpoly_forest_coeffs(g)
        lap = graph_matrix(g)
        by_count = [F(0)] * (g.n + 1)
        for f in enum_forests(g):
            by_count[len(root_set_of(g, f))] += weight_of(instances_of(f), g)
        assert list(poly.coeffs) == by_count
        for k in range(g.n + 1):
            assert poly.coeffs[k] == lap.principal_minor_sum(k)
        assert poly.evaluate(1) == forest_det(g)
    report("criterion 6c (charpoly coefficients, all k, 100 instances)")


def expected_cofactor_coeffs(graph, forest_data, i, j):
    """Eq-style oracle: bucket by exact root set, then sum the subsets phi."""
    per_set = {}
    for roots_map, rset, wt in forest_data:
        if roots_map[j] != i:
            continue
        per_set[rset] = per_set.get(rset, F(0)) + wt
    others = [v for v in range(graph.n) if v not in (i, j)]
    coeffs = [F(0)] * graph.n
    for k in range(len(others) + 1):
        for phi in combinations(others, k):
            coeffs[k] += per_set.get(frozenset(phi) | {i}, F(0))
    return coeffs


def test_criterion_6_lemma_5_cofactor_polynomials():
    rng = random.Random(0x1E5)
    t0 = time.perf_counter()
    for trial in range(100):
        maker = random_multidigraph if trial % 2 else random_multigraph
        g = maker(rng, 2, 5, 8)
        lap = graph_matrix(g)
        forest_data = [
            (root_of_map(g, f), root_set_of(g, f), weight_of(instances_of(f), g))
            for f in enum_forests(g)
        ]
        for i in range(g.n):
            for j in range(g.n):
                poly = cofactor_poly(g, i, j)
                assert list(poly.coeffs) == expected_cofactor_coeffs(g, forest_data, i, j)
                for lam in (0, 1, 2, -1):
                    assert poly.evaluate(lam) == forest_matrix(lap, lam).cofactor(i, j)
    elapsed = time.perf_counter() - t0
    report("criterion 6d (cofactor polynomials, coeffs + 4-point eval)",
           f"in {elapsed:.1f}s")


def test_criterion_6_path_expansion():
    rng = random.Random(0x1E42)
    for trial in range(100):
        dg = random_multidigraph(rng, 2, 5, 10)
        lap = graph_matrix(dg)
        for i in range(dg.n):
            for j in range(dg.n):
                if i != j:
                    assert path_expansion_cofactor(lap, i, j) == lap.cofactor(i, j)
        if dg.n <= 4:  # also exercise every principal submatrix
            for size in range(1, dg.n - 1):
                for phi in combinations(range(dg.n), size):
                    sub = lap.delete_rows_cols(phi)
                    for i in range(sub.n):
                        for j in range(sub.n):
                            if i != j:
                                assert path_expansion_cofactor(sub, i, j) == sub.cofactor(i, j)
    report("criterion 6e (path-expansion cofactors, 100 instances)")


def test_criterion_6_signed_adjugate():
    rng = random.Random(0x1E6)
    for trial in range(100):
        maker = random_multidigraph if trial % 2 else random_multigraph
        g = maker(rng, 2, 5, 8)
        neg = -graph_matrix(g)
        signed_oracle = None
        if trial % 4 == 1:  # spot-check the arc-parity forest sums as well
            forest_data = [
                (root_of_map(g, f), root_set_of(g, f),
                 weight_of(instances_of(f), g), len(instances_of(f)))
                for f in enum_forests(g)
            ]
            signed_oracle = forest_data
        for i in range(g.n):
            for j in range(g.n):
                poly = signed_cofactor_poly(g, i, j)
                for lam in range(-1, -g.n - 2, -1):  # n + 1 points, never a node
                    assert poly.evaluate(lam) == forest_matrix(neg, lam).cofactor(i, j)
                if signed_oracle is not None:
                    coeffs = [F(0)] * g.n
                    for roots_map, rset, wt, d in signed_oracle:
                        if roots_map[j] == i:
                            coeffs[len(rset) - 1] += wt if d % 2 == 0 else -wt
                    assert list(poly.coeffs) == coeffs
    report("criterion 6f (signed coefficients = characteristic-matrix cofactors)")


def test_criterion_7_partition_identity(undirected_suite, directed_suite):
    for g, _, _ in undirected_suite + directed_suite:
        det = forest_det(g)
        for i in range(g.n):
            assert sum((forest_cofactor(g, j, i) for j in range(g.n)), F(0)) == det
    report("criterion 7 (cofactor partition of det W)", "on all 400 suite graphs")


def random_positive_graph(rng, n, edge_count):
    edges = []
    for _ in range(edge_count):
        u = rng.randrange(n)
        v = rng.randrange(n - 1)
        if v >= u:
            v += 1
        edges.append((u, v, rng.choice(POSITIVE_POOL)))
    return Multigraph(n, tuple(edges))


def test_criterion_8_float_mode_performance():
    rng = random.Random(0xF10A7)
    n = 2000
    g = random_positive_graph(rng, n, 6000)  # average degree 6
    t0 = time.perf_counter()
    w = np.eye(n) + floatops.graph_matrix(g)  # W at lambda = 1
    targets = rng.sample(range(n), 10)
    rhs = np.zeros((n, len(targets)))
    for col, vertex in enumerate(targets):
        rhs[vertex, col] = 1.0
    x = np.linalg.solve(w, rhs)
    elapsed = time.perf_counter() - t0
    assert float(np.abs(w @ x - rhs).max()) < 1e-9
    assert elapsed < 10.0

    g50 = random_positive_graph(rng, 50, 150)
    exact = accessibility(g50).matrix
    approx = floatops.accessibility(g50).matrix
    worst = 0.0
    for i in range(50):
        for j in range(50):
            e = float(exact.entries[i][j])
            worst = max(worst, abs(e - approx[i, j]) / max(1.0, abs(e)))
    assert worst < 1e-9
    report("criterion 8 (float mode)",
           f"n=2000 solve in {elapsed:.2f}s; n=50 agreement {worst:.1e}")


def test_criterion_9_runtime_budget():
    elapsed = time.perf_counter() - _MODULE_T0
    assert elapsed < 300.0
    report("criterion 9 (acceptance wall clock)", f"{elapsed:.1f}s < 300s")
