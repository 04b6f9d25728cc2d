"""Brute-force enumeration: fixtures, validity re-checks and structural laws."""

import hashlib
import random
from fractions import Fraction
from itertools import combinations

import pytest

from forestmatrix import (
    DivergingForest,
    Guard,
    GuardExceededError,
    Multidigraph,
    Multigraph,
    RootedForest,
    contract,
    enum_diverging_forests,
    enum_diverging_trees,
    enum_paths,
    enum_rooted_forests,
    enum_spanning_trees,
    filter_rooted,
    filter_roots,
    kirchhoff,
    laplacian,
    merge_parallel,
    set_weight,
    to_bidirected,
    tree_roots,
    weight_of,
)
from helpers import (
    WEIGHT_POOL,
    check_diverging_forest,
    check_rooted_forest,
    random_multidigraph,
    random_multigraph,
    root_of_map,
    scan_forests,
    scan_trees,
)

F = Fraction


class TestWeights:
    def test_empty_subgraph_weighs_one(self, single_arc):
        assert weight_of((), single_arc) == 1

    def test_product(self):
        g = Multigraph(3, ((0, 1, F(2, 3)), (1, 2, 3)))
        assert weight_of((0, 1), g) == 2

    def test_family_weight_is_sum_and_empty_family_zero(self):
        g = Multigraph(3, ((0, 1, F(2, 3)), (1, 2, 3)))
        assert set_weight(((0,), (1,)), g) == F(2, 3) + 3
        assert set_weight((), g) == 0

    def test_invalid_index(self, single_arc):
        for instances in ((5,), (-1,), (0, 1)):
            with pytest.raises(IndexError):
                weight_of(instances, single_arc)

    def test_matches_fraction_product(self):
        rng = random.Random(17)
        pool = WEIGHT_POOL + (F(0), F(5, 12))
        graphs = [Multigraph(3, ((0, 1, F(2, 3)), (1, 2, 0), (0, 2, F(-7, 12))))]
        for _ in range(40):
            make = random_multigraph if rng.random() < 0.5 else random_multidigraph
            graphs.append(make(rng, 2, 5, 8, pool))
        for g in graphs:
            m = len(g.instances)
            for size in range(m + 1):
                for idxs in combinations(range(m), size):
                    expected = F(1)
                    for i in idxs:
                        expected *= g.instances[i].w
                    value = weight_of(idxs, g)
                    assert type(value) is Fraction and value == expected


def _canonical(value):
    """value with each frozenset as its sorted tuple, so a digest of its repr
    depends on the members, not on a set's internal order."""
    if isinstance(value, frozenset):
        return ("frozenset", tuple(sorted(value)))
    if isinstance(value, tuple):
        return (type(value).__name__, tuple(map(_canonical, value)))
    return value


class TestPinnedOutputs:
    # sha256 over every output below, recorded before the enumerations became
    # projections of one walk: a changed tuple, order, root map or weight changes it
    DIGEST = "e3a39f3d2ebfbafc88d4139b94ba0de175e50f414731c9fffcc8760f9c526924"

    def test_outputs_on_seeded_graphs(self):
        rng = random.Random(26)
        pool = WEIGHT_POOL + (F(0), F(-5, 12))
        graphs = [Multigraph(0), Multidigraph(0), Multigraph(1), Multidigraph(1)]
        for k in range(24):
            make = random_multidigraph if k % 2 else random_multigraph
            graphs.append(make(rng, 2, 5, 7, pool))
        digest = hashlib.sha256()
        for g in graphs:
            if isinstance(g, Multidigraph):
                forests = enum_diverging_forests(g)
                trees = [[t.arcs for t in enum_diverging_trees(g, r)] for r in range(g.n)]
                members = [f.arcs for f in forests]
            else:
                forests = enum_rooted_forests(g)
                trees = [enum_spanning_trees(g)]
                members = [f.edges for f in forests]
            outputs = [forests, *map(tuple, trees)]
            outputs += [(tree_roots(g, f), weight_of(m, g)) for f, m in zip(forests, members)]
            outputs += [set_weight(members, g), *(set_weight(t, g) for t in trees)]
            for value in outputs:
                digest.update(repr(_canonical(value)).encode())
        assert digest.hexdigest() == self.DIGEST


class TestEnumDivergingForests:
    def test_single_arc(self, single_arc):
        forests = enum_diverging_forests(single_arc)
        assert sorted(f.arcs for f in forests) == [frozenset(), frozenset({0})]
        assert set_weight((f.arcs for f in forests), single_arc) == 2

    def test_arcless(self):
        forests = enum_diverging_forests(Multidigraph(4))
        assert len(forests) == 1 and forests[0].arcs == frozenset()
        assert set_weight((f.arcs for f in forests), Multidigraph(4)) == 1

    def test_directed_3cycle(self, directed_3cycle):
        forests = enum_diverging_forests(directed_3cycle)
        assert len(forests) == 7
        by_size = sorted(len(f.arcs) for f in forests)
        assert by_size == [0, 1, 1, 1, 2, 2, 2]
        assert set_weight((f.arcs for f in forests), directed_3cycle) == 7

    def test_opposite_arcs_never_both_chosen(self):
        dg = Multidigraph(2, ((0, 1, 1), (1, 0, 1)))
        forests = enum_diverging_forests(dg)
        assert sorted(f.arcs for f in forests) == [frozenset(), frozenset({0}), frozenset({1})]


class TestEnumRootedForests:
    def test_single_edge(self, single_edge):
        forests = enum_rooted_forests(single_edge)
        assert len(forests) == 3
        assert set_weight((f.edges for f in forests), single_edge) == 3

    def test_unit_k3(self, unit_k3):
        forests = enum_rooted_forests(unit_k3)
        assert len(forests) == 16
        sizes = sorted(len(f.edges) for f in forests)
        assert sizes == [0] + [1] * 6 + [2] * 9
        assert set_weight((f.edges for f in forests), unit_k3) == 16

    def test_edgeless(self):
        g = Multigraph(3)
        forests = enum_rooted_forests(g)
        assert len(forests) == 1
        assert forests[0].roots == frozenset({0, 1, 2})


class TestEnumTrees:
    def test_unit_k3(self, unit_k3):
        trees = enum_spanning_trees(unit_k3)
        assert len(trees) == 3
        assert set_weight(trees, unit_k3) == 3

    def test_single_edge(self, single_edge):
        assert enum_spanning_trees(single_edge) == (frozenset({0}),)

    def test_diverging_from_root(self, directed_3cycle):
        trees = enum_diverging_trees(directed_3cycle, 0)
        assert trees == (type(trees[0])(frozenset({0, 1})),)
        assert set_weight((t.arcs for t in trees), directed_3cycle) == 1

    def test_single_vertex_graph(self):
        assert len(enum_spanning_trees(Multigraph(1))) == 1
        assert len(enum_diverging_trees(Multidigraph(1), 0)) == 1

    def test_edgeless_graphs(self):
        assert enum_spanning_trees(Multigraph(0)) == ()
        assert enum_spanning_trees(Multigraph(3)) == ()
        assert enum_diverging_trees(Multidigraph(3), 1) == ()


def _tree_scan_cases(seed: int, count: int):
    """Small random graphs with parallel instances, zero weights and m < n - 1."""
    rng = random.Random(seed)
    pool = (F(0), F(1), F(-1), F(2), F(1, 2), F(-3, 2))
    cases = []
    for index in range(count):
        if index % 2:
            g = random_multidigraph(rng, 2, 5, 9, pool)
            if g.arcs:
                g = Multidigraph(g.n, g.arcs + (g.arcs[0],))
        else:
            g = random_multigraph(rng, 2, 5, 7, pool)
            if g.edges:
                g = Multigraph(g.n, g.edges + (g.edges[0],))
        cases.append(g)
    return cases


class TestTreeScansMatchOneTreeForests:
    CASES = _tree_scan_cases(31, 80)

    def test_cases_cover_the_edge_cases(self):
        assert any(len(g.instances) < g.n - 1 for g in self.CASES)
        assert any(any(x.w == 0 for x in g.instances) for g in self.CASES)
        assert any(len(set(g.instances)) < len(g.instances) for g in self.CASES)

    def test_spanning_trees(self):
        for g in (g for g in self.CASES if isinstance(g, Multigraph)):
            one_tree = {f.edges for f in enum_rooted_forests(g) if len(f.roots) == 1}
            trees = enum_spanning_trees(g)
            assert len(set(trees)) == len(trees)
            assert set(trees) == one_tree

    def test_diverging_trees(self):
        for g in (g for g in self.CASES if isinstance(g, Multidigraph)):
            forests = enum_diverging_forests(g)
            for root in range(g.n):
                one_tree = {f for f in forests if set(root_of_map(g, f)) == {root}}
                trees = enum_diverging_trees(g, root)
                assert len(set(trees)) == len(trees)
                assert set(trees) == one_tree


class TestForestScanBound:
    CASES = [g for g in TestTreeScansMatchOneTreeForests.CASES if len(g.instances) > g.n - 1]

    def test_no_vertices_has_one_empty_forest(self):
        assert enum_rooted_forests(Multigraph(0)) == (RootedForest(frozenset(), frozenset()),)
        assert enum_diverging_forests(Multidigraph(0)) == (DivergingForest(frozenset()),)

    def test_cases_cover_the_edge_cases(self):
        assert len(self.CASES) >= 40
        assert {type(g) for g in self.CASES} == {Multigraph, Multidigraph}
        assert any(any(x.w == 0 for x in g.instances) for g in self.CASES)
        assert any(len(set(g.instances)) < len(g.instances) for g in self.CASES)

    def test_rooted_forests_match_a_full_bitmask_scan(self):
        for g in (g for g in self.CASES if isinstance(g, Multigraph)):
            assert enum_rooted_forests(g) == scan_forests(g)

    def test_diverging_forests_match_a_full_bitmask_scan(self):
        for g in (g for g in self.CASES if isinstance(g, Multidigraph)):
            assert enum_diverging_forests(g) == scan_forests(g)

    def test_spanning_trees_match_a_full_bitmask_scan(self):
        found = 0
        for g in (g for g in TestTreeScansMatchOneTreeForests.CASES if isinstance(g, Multigraph)):
            trees = enum_spanning_trees(g)
            assert trees == scan_trees(g)
            found += len(trees)
        assert found > 0

    def test_diverging_trees_match_a_full_bitmask_scan(self):
        found = 0
        for g in (g for g in TestTreeScansMatchOneTreeForests.CASES if isinstance(g, Multidigraph)):
            for root in range(g.n):
                trees = enum_diverging_trees(g, root)
                assert trees == scan_trees(g, root)
                found += len(trees)
        assert found > 0


class TestTreeRoots:
    def test_diverging_path(self):
        dg = Multidigraph(4, ((0, 1, 1), (1, 2, 1), (3, 2, 1)))
        (forest,) = [f for f in enum_diverging_forests(dg) if f.arcs == frozenset({0, 1})]
        assert tree_roots(dg, forest) == (0, 0, 0, 3)

    def test_rooted_forest_uses_the_chosen_root(self, unit_k3):
        forests = [f for f in enum_rooted_forests(unit_k3) if f.edges == frozenset({0})]
        assert {tree_roots(unit_k3, f) for f in forests} == {(0, 0, 2), (1, 1, 2)}

    def test_diverging_cycle_is_a_value_error(self):
        # with arc 2, vertex 0 hangs below the cycle 1 <-> 2 and its walk never returns to it
        dg = Multidigraph(3, ((1, 2, 1), (2, 1, 1), (1, 0, 1)))
        for arcs, v in (({0, 1}, 1), ({0, 1, 2}, 0)):
            with pytest.raises(ValueError, match=f"vertex {v} is on a cycle of the forest or below one"):
                tree_roots(dg, DivergingForest(frozenset(arcs)))

    def test_two_arcs_into_one_vertex_is_a_value_error(self):
        dg = Multidigraph(3, ((0, 2, 1), (1, 2, 1)))
        with pytest.raises(ValueError, match="two arcs of the forest enter one vertex"):
            tree_roots(dg, DivergingForest(frozenset({0, 1})))

    def test_two_roots_in_one_tree_is_a_value_error(self, single_edge):
        with pytest.raises(ValueError, match="vertex 1 is a second root in the tree of root 0"):
            tree_roots(single_edge, RootedForest(frozenset({0}), frozenset({0, 1})))

    def test_tree_without_a_root_is_a_value_error(self):
        g = Multigraph(4, ((0, 1, 1), (2, 3, 1)))
        with pytest.raises(ValueError, match="vertex 2 is in a tree without a root"):
            tree_roots(g, RootedForest(frozenset({0, 1}), frozenset({1})))

    @pytest.mark.parametrize("directed, forest, message", [
        (True, DivergingForest(frozenset({-1})), "instance index -1 out of range"),
        (True, DivergingForest(frozenset({0, 3})), "instance index 3 out of range"),
        (False, RootedForest(frozenset({-1}), frozenset({0, 1})), "instance index -1 out of range"),
        (False, RootedForest(frozenset({3}), frozenset({0, 1})), "instance index 3 out of range"),
        (False, RootedForest(frozenset(), frozenset({0, 1, -1})), "vertex -1 out of range for n=3"),
        (False, RootedForest(frozenset(), frozenset({0, 1, 2, 3})), "vertex 3 out of range for n=3"),
    ], ids=["arc-minus-1", "arc-3", "edge-minus-1", "edge-3", "root-minus-1", "root-3"])
    def test_index_out_of_range_is_an_index_error(self, unit_k3, directed_3cycle, directed, forest, message):
        # a negative index would read an instance or a root from the end
        g = directed_3cycle if directed else unit_k3
        with pytest.raises(IndexError) as raised:
            tree_roots(g, forest)
        assert str(raised.value) == message
        with pytest.raises(IndexError):
            filter_roots(g, [forest], {0, 1})

    def test_matches_independent_walk(self):
        for g in TestTreeScansMatchOneTreeForests.CASES:
            forests = enum_diverging_forests(g) if isinstance(g, Multidigraph) else enum_rooted_forests(g)
            for f in forests:
                assert list(tree_roots(g, f)) == root_of_map(g, f)


class TestFilters:
    def test_diverging_pair(self, single_arc):
        forests = enum_diverging_forests(single_arc)
        chosen = filter_rooted(single_arc, forests, 0, 1)
        assert [f.arcs for f in chosen] == [frozenset({0})]

    def test_diverging_diagonal_selects_roots(self, single_arc):
        forests = enum_diverging_forests(single_arc)
        assert len(filter_rooted(single_arc, forests, 0, 0)) == 2

    def test_no_path_means_empty(self):
        dg = Multidigraph(2, ((0, 1, 1),))
        forests = enum_diverging_forests(dg)
        assert filter_rooted(dg, forests, 1, 0) == ()

    def test_rooted_pair(self, single_edge):
        forests = enum_rooted_forests(single_edge)
        chosen = filter_rooted(single_edge, forests, 0, 1)
        assert len(chosen) == 1 and chosen[0].roots == frozenset({0})

    def test_rooted_diagonal(self, single_edge):
        forests = enum_rooted_forests(single_edge)
        assert len(filter_rooted(single_edge, forests, 0, 0)) == 2

    def test_rooted_partition_law(self):
        rng = random.Random(31)
        for _ in range(15):
            g = random_multigraph(rng, n_max=5, max_edges=8)
            forests = enum_rooted_forests(g)
            total = set_weight((f.edges for f in forests), g)
            for i in range(g.n):
                parts = [filter_rooted(g, forests, j, i) for j in range(g.n)]
                assert all(root_of_map(g, f)[i] == j for j, p in enumerate(parts) for f in p)
                assert sum(len(p) for p in parts) == len(forests)
                assert sum(
                    (set_weight((f.edges for f in p), g) for p in parts), F(0)
                ) == total

    def test_diverging_partition_law(self):
        rng = random.Random(32)
        for _ in range(15):
            dg = random_multidigraph(rng, n_max=4, max_arcs=8)
            forests = enum_diverging_forests(dg)
            for i in range(dg.n):
                parts = [filter_rooted(dg, forests, j, i) for j in range(dg.n)]
                assert all(root_of_map(dg, f)[i] == j for j, p in enumerate(parts) for f in p)
                members = [f for p in parts for f in p]
                key = lambda f: sorted(f.arcs)
                assert sorted(members, key=key) == sorted(forests, key=key)

    def test_filter_roots_k3_bidirected(self, unit_k3):
        dg = to_bidirected(unit_k3)
        forests = enum_diverging_forests(dg)
        rooted_at_0 = filter_roots(dg, forests, (0,))
        assert len(rooted_at_0) == 3
        assert set_weight((f.arcs for f in rooted_at_0), dg) == 3

    def test_filter_roots_all_vertices(self, unit_k3):
        forests = enum_rooted_forests(unit_k3)
        chosen = filter_roots(unit_k3, forests, (0, 1, 2))
        assert len(chosen) == 1 and chosen[0].edges == frozenset()

    def test_filter_roots_empty_target(self, unit_k3):
        forests = enum_rooted_forests(unit_k3)
        assert filter_roots(unit_k3, forests, ()) == ()

    @pytest.mark.parametrize("directed", [False, True], ids=["rooted", "diverging"])
    @pytest.mark.parametrize("bad", [-1, 3])
    def test_vertex_out_of_range(self, unit_k3, directed, bad):
        g = to_bidirected(unit_k3) if directed else unit_k3
        forests = enum_diverging_forests(g) if directed else enum_rooted_forests(g)
        for call in (lambda: filter_roots(g, forests, [bad]),
                     lambda: filter_roots(g, forests, [0, 2, bad]),
                     lambda: filter_rooted(g, forests, 0, bad),
                     lambda: filter_rooted(g, forests, bad, 0)):
            with pytest.raises(IndexError, match=f"vertex {bad} out of range for n=3"):
                call()
        assert filter_roots(g, forests, ()) == ()

    def test_filter_roots_matches_independent_root_sets(self):
        rng = random.Random(33)
        for _ in range(10):
            for g in (random_multigraph(rng, n_max=4, max_edges=6),
                      random_multidigraph(rng, n_max=4, max_arcs=7)):
                forests = enum_diverging_forests(g) if isinstance(g, Multidigraph) else enum_rooted_forests(g)
                target = frozenset(rng.sample(range(g.n), rng.randint(1, g.n)))
                expected = tuple(f for f in forests if set(root_of_map(g, f)) == target)
                assert filter_roots(g, forests, target) == expected


class TestEnumPaths:
    def test_single_arc(self, single_arc):
        paths = enum_paths(single_arc, 0, 1)
        assert len(paths) == 1
        assert paths[0].vertices == (0, 1) and paths[0].vertex_set == frozenset({0, 1})

    def test_cycle_has_one_path(self, directed_3cycle):
        paths = enum_paths(directed_3cycle, 0, 2)
        assert len(paths) == 1 and paths[0].vertices == (0, 1, 2)

    def test_zero_length_path(self, directed_3cycle):
        paths = enum_paths(directed_3cycle, 1, 1)
        assert len(paths) == 1
        assert paths[0].arcs == () and paths[0].vertex_set == frozenset({1})
        assert weight_of(paths[0].arcs, directed_3cycle) == 1

    def test_parallel_arcs_give_distinct_paths(self):
        dg = Multidigraph(2, ((0, 1, 1), (0, 1, 2)))
        assert len(enum_paths(dg, 0, 1)) == 2


class TestGraphKind:
    """Each function of one graph kind refuses the other with a TypeError naming
    the kind it needs: a digraph's arcs are not twin arcs, and a graph has no arcs."""

    @pytest.mark.parametrize("call, kind", [
        (lambda g, dg: to_bidirected(dg), "Multigraph"),
        (lambda g, dg: enum_rooted_forests(dg), "Multigraph"),
        (lambda g, dg: enum_spanning_trees(dg), "Multigraph"),
        (lambda g, dg: enum_spanning_trees(Multidigraph(0)), "Multigraph"),
        (lambda g, dg: enum_diverging_forests(g), "Multidigraph"),
        (lambda g, dg: enum_diverging_trees(g, 0), "Multidigraph"),
        (lambda g, dg: enum_paths(g, 0, 1), "Multidigraph"),
        (lambda g, dg: contract(g, [0, 1]), "Multidigraph"),
        (lambda g, dg: laplacian(dg), "Multigraph"),  # graph_matrix takes either kind
        (lambda g, dg: kirchhoff(g), "Multidigraph"),
    ], ids=["to_bidirected", "rooted-forests", "spanning-trees", "spanning-trees-n0",
            "diverging-forests", "diverging-trees", "paths", "contract", "laplacian", "kirchhoff"])
    def test_other_kind_is_a_type_error(self, unit_k3, directed_3cycle, call, kind):
        other = "Multidigraph" if kind == "Multigraph" else "Multigraph"
        with pytest.raises(TypeError) as raised:
            call(unit_k3, directed_3cycle)
        assert str(raised.value) == f"expected a {kind}, got {other}"

    @pytest.mark.parametrize("call, kind", [
        (lambda g, dg: tree_roots(dg, RootedForest(frozenset({0}), frozenset({0, 2}))),
         "DivergingForest"),
        (lambda g, dg: filter_roots(g, enum_diverging_forests(to_bidirected(g)), {0}),
         "RootedForest"),
        (lambda g, dg: filter_rooted(g, enum_diverging_forests(to_bidirected(g)), 0, 1),
         "RootedForest"),
        (lambda g, dg: filter_rooted(dg, enum_rooted_forests(g), 0, 1), "DivergingForest"),
    ], ids=["tree-roots", "filter-roots", "filter-rooted-graph", "filter-rooted-digraph"])
    def test_forest_of_the_other_kind_is_a_type_error(self, call, kind):
        # the two-edge path and the digraph of its two forward arcs
        g = Multigraph(3, ((0, 1, 1), (1, 2, 1)))
        dg = Multidigraph(3, ((0, 1, 1), (1, 2, 1)))
        other = "RootedForest" if kind == "DivergingForest" else "DivergingForest"
        with pytest.raises(TypeError) as raised:
            call(g, dg)
        assert str(raised.value) == f"expected a {kind}, got {other}"


@pytest.mark.parametrize("call, message", [
    (lambda dg: enum_diverging_trees(dg, 3), "root 3 out of range for n=3"),
    (lambda dg: enum_diverging_trees(dg, -1), "root -1 out of range for n=3"),
    (lambda dg: enum_paths(dg, 0, 3), "vertex 3 out of range for n=3"),
    (lambda dg: enum_paths(dg, -1, 0), "vertex -1 out of range for n=3"),
], ids=["trees-root-3", "trees-root-minus-1", "paths-goal-3", "paths-start-minus-1"])
def test_vertex_out_of_range_is_an_index_error(directed_3cycle, call, message):
    with pytest.raises(IndexError) as raised:
        call(directed_3cycle)
    assert str(raised.value) == message


class TestGuard:
    def test_too_many_vertices(self):
        with pytest.raises(GuardExceededError):
            enum_rooted_forests(Multigraph(9))

    def test_too_many_instances(self):
        g = Multigraph(2, tuple((0, 1, 1) for _ in range(17)))
        with pytest.raises(GuardExceededError):
            enum_rooted_forests(g)

    def test_override(self):
        g = Multigraph(9)
        assert len(enum_rooted_forests(g, Guard(max_vertices=9))) == 1

    def test_paths_capped_by_vertices_only(self):
        # 20 parallel instances are fine for path search, 9 vertices are not
        dg = Multidigraph(2, tuple((0, 1, 1) for _ in range(20)))
        assert len(enum_paths(dg, 0, 1)) == 20
        with pytest.raises(GuardExceededError):
            enum_paths(Multidigraph(9), 0, 1)


class TestEnumeratedObjectsAreValid:
    def test_rooted_forests_pass_independent_checker(self):
        rng = random.Random(41)
        for _ in range(12):
            g = random_multigraph(rng, n_max=5, max_edges=8)
            for f in enum_rooted_forests(g):
                assert check_rooted_forest(g, f)

    def test_diverging_forests_pass_independent_checker(self):
        rng = random.Random(42)
        for _ in range(12):
            dg = random_multidigraph(rng, n_max=4, max_arcs=8)
            for f in enum_diverging_forests(dg):
                assert check_diverging_forest(dg, f)

    def test_non_forests_are_not_enumerated(self, directed_3cycle):
        # the full cycle is the only subset missing, and it is cyclic
        forests = enum_diverging_forests(directed_3cycle)
        assert frozenset({0, 1, 2}) not in {f.arcs for f in forests}


class TestMergeInvariance:
    def test_pair_weights_survive_merging(self):
        rng = random.Random(51)
        for _ in range(12):
            base = random_multidigraph(rng, n_max=4, max_arcs=5)
            # force parallel instances by duplicating arcs with split weights
            arcs = list(base.arcs)
            for t, h, w in list(base.arcs):
                arcs.append((t, h, w))
                arcs.append((t, h, -w + rng.choice((F(1), F(1, 2)))))
            dg = Multidigraph(base.n, tuple(arcs))
            merged = merge_parallel(dg)
            f_all = enum_diverging_forests(dg)
            f_merged = enum_diverging_forests(merged)
            for a in range(dg.n):
                for b in range(dg.n):
                    lhs = set_weight(
                        (f.arcs for f in filter_rooted(dg, f_all, a, b)), dg
                    )
                    rhs = set_weight(
                        (f.arcs for f in filter_rooted(merged, f_merged, a, b)), merged
                    )
                    assert lhs == rhs


class TestContractionBijection:
    def test_forests_rooted_at_phi_match_contracted_trees(self):
        rng = random.Random(61)
        for _ in range(12):
            dg = random_multidigraph(rng, n_min=2, n_max=5, max_arcs=9)
            forests = enum_diverging_forests(dg)
            size = rng.randint(1, dg.n)
            phi = tuple(sorted(rng.sample(range(dg.n), size)))
            chosen = filter_roots(dg, forests, phi)
            contracted, star = contract(dg, phi)
            trees = enum_diverging_trees(contracted, star)
            assert len(chosen) == len(trees)
            assert set_weight((f.arcs for f in chosen), dg) == set_weight(
                (t.arcs for t in trees), contracted
            )


class TestPathDecomposition:
    def test_forests_joining_i_to_j_split_into_path_plus_forest(self):
        # every forest with root set phi+{i} whose tree at i contains j is a
        # simple path i->j avoiding phi plus a forest rooted exactly at phi
        # plus the path's vertices, and the reconstruction is unique
        rng = random.Random(71)
        for _ in range(10):
            dg = random_multidigraph(rng, n_min=2, n_max=4, max_arcs=7)
            forests = enum_diverging_forests(dg)
            i, j = rng.sample(range(dg.n), 2)
            others = [v for v in range(dg.n) if v not in (i, j)]
            for size in range(len(others) + 1):
                for phi in combinations(others, size):
                    target = frozenset(phi) | {i}
                    lhs = {
                        f.arcs
                        for f in filter_rooted(dg, filter_roots(dg, forests, target), i, j)
                    }
                    rebuilt = []
                    for p in enum_paths(dg, i, j):
                        if p.vertex_set & set(phi):
                            continue  # inside such a forest the i->j path cannot cross another root
                        for f in filter_roots(dg, forests, frozenset(phi) | p.vertex_set):
                            rebuilt.append(f.arcs | frozenset(p.arcs))
                    assert len(rebuilt) == len(set(rebuilt)) == len(lhs)
                    assert set(rebuilt) == lhs
