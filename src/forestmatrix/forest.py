"""Forest-matrix operations on weighted multigraphs and multidigraphs.

The central object is W = lambda*I + L, where L is the Laplacian (undirected)
or Kirchhoff (directed) matrix. det W at lambda = 1 is the total weight of
spanning rooted / diverging forests, the (i, j) cofactor is the weight of the
forests joining j into i's tree, and Q = W**-1 is the relative
forest-accessibility matrix. Everything here is exact; the enumeration-based
counterparts live in `oracle`, which the two functions here that enumerate
import when called, so a process that never enumerates does not load it.
The functions of a graph run the `linalg` kernels on the integer rows of W
that `graphs` sums from the arc list, giving the values the SquareMatrix
methods give on forest_matrix(graph_matrix(graph), lam); only forest_minor,
matrix_tree_check and forest_matrix_report build that matrix of Fractions,
and the report takes its det W from forest_det.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .graphs import (
    DEFAULT_GUARD,
    AnyGraph,
    Guard,
    Multidigraph,
    _graph_matrix,
    _scaled_rows,
)
from .linalg import (
    Polynomial,
    SingularMatrixError,
    SquareMatrix,
    _char_poly,
    _check_index,
    _cofactor,
    _cofactor_poly,
    _det,
    _inverse,
    as_rational,
)

__all__ = [
    "SingularForestMatrixError",
    "ForestMatrixReport",
    "AccessibilityMatrix",
    "MatrixTreeReport",
    "graph_matrix",
    "forest_matrix",
    "forest_matrix_report",
    "forest_det",
    "forest_cofactor",
    "accessibility",
    "charpoly_forest_coeffs",
    "cofactor_poly",
    "signed_cofactor_poly",
    "path_expansion_cofactor",
    "matrix_tree_check",
    "forest_minor",
]


class SingularForestMatrixError(SingularMatrixError):
    """W = lambda*I + L is singular; at lambda = 1, the total spanning-forest weight is zero.

    Possible only when lambda <= 0 or some weight is negative: otherwise det W
    is a sum of nonnegative forest terms, and the edgeless forest adds lambda**n.
    """


def graph_matrix(graph: AnyGraph) -> SquareMatrix:
    """The graph's Laplacian (undirected) or Kirchhoff (directed) matrix."""
    return _graph_matrix(graph)


def forest_matrix(matrix: SquareMatrix, lam=1) -> SquareMatrix:
    """lambda*I + matrix, with lambda added to the diagonal in one pass."""
    lam = as_rational(lam)
    rows = [list(row) for row in matrix.entries]
    for r, row in enumerate(rows):
        row[r] += lam
    return SquareMatrix(tuple(map(tuple, rows)))


class ForestMatrixReport(NamedTuple):
    """W at a given lambda together with its determinant."""

    matrix: SquareMatrix
    det: Fraction
    lam: Fraction


def forest_matrix_report(graph: AnyGraph, lam=1) -> ForestMatrixReport:
    lam = as_rational(lam)
    return ForestMatrixReport(forest_matrix(graph_matrix(graph), lam), forest_det(graph, lam), lam)


def forest_det(graph: AnyGraph, lam=1) -> Fraction:
    """det(lambda*I + L); at lambda = 1 this is the total spanning-forest weight."""
    return _det(*_scaled_rows(graph, lam))


def forest_cofactor(graph: AnyGraph, i: int, j: int, lam=1) -> Fraction:
    """Cofactor of entry (i, j) of lambda*I + L.

    At lambda = 1: the weight of spanning forests in which i and j share a
    tree rooted at / diverging from i. Symmetric in i and j for undirected
    input.
    """
    return _cofactor(*_scaled_rows(graph, lam), i, j)


class AccessibilityMatrix(NamedTuple):
    """Q = W**-1; row sums are exactly 1, and Q is symmetric for undirected input."""

    matrix: SquareMatrix


def accessibility(graph: AnyGraph, lam=1) -> AccessibilityMatrix:
    """Relative forest-accessibility matrix Q = (lambda*I + L)**-1, exact.

    Entry (i, j) is the fraction of total forest weight carried by the
    forests connecting i into the tree of j. Raises
    SingularForestMatrixError when W is singular.
    """
    try:
        return AccessibilityMatrix(_inverse(*_scaled_rows(graph, lam)))
    except SingularMatrixError:
        raise SingularForestMatrixError(
            f"W = lambda*I + L is singular at lambda = {lam}; "
            "the accessibility matrix does not exist"
        ) from None


def charpoly_forest_coeffs(graph: AnyGraph) -> Polynomial:
    """Coefficients of det(lambda*I + L), constant first.

    Coefficient k is the total weight of spanning forests with exactly k
    trees (summed over every k-subset of root vertices); the constant term is
    det L, zero for every graph matrix (its rows sum to zero), so _char_poly
    takes it as known rather than eliminated, and the leading coefficient is 1.
    """
    return _char_poly(*_scaled_rows(graph))


def cofactor_poly(graph: AnyGraph, i: int, j: int) -> Polynomial:
    """The cofactor of (i, j) in lambda*I + L as a polynomial in lambda.

    Evaluating at 1 gives forest_cofactor; coefficient k is the weight of the
    forests with k+1 trees that join j into i's tree (i among the roots).
    """
    return _cofactor_poly(*_scaled_rows(graph), i, j)


def signed_cofactor_poly(graph: AnyGraph, i: int, j: int) -> Polynomial:
    """The cofactor of (i, j) in lambda*I - L as a polynomial in lambda.

    Coefficient k is the weight of the forests counted in coefficient k of
    cofactor_poly, each weighted by (-1)**(number of arcs). Arranged as a
    matrix (transposed), these polynomials form the adjugate of the
    characteristic matrix of L; verify flips L's integer grid through _signed too.
    """
    return Polynomial(_signed(cofactor_poly(graph, i, j).coeffs, graph.n))


def _signed(coeffs, n: int) -> tuple:
    """A cofactor poly's coefficients of lambda*I + M, M of order n, as the same
    cofactor's of lambda*I - M = -((-lambda)*I + M): one of order n - 1, it is
    (-1)**(n-1) times poly at -lambda, so coefficient k is (-1)**(n-1+k) * poly_k."""
    return tuple(-c if (n - 1 + k) % 2 else c for k, c in enumerate(coeffs))


def path_expansion_cofactor(
    matrix: SquareMatrix, i: int, j: int, guard: Guard = DEFAULT_GUARD
) -> Fraction:
    """Cofactor of (i, j), i != j, via simple-path expansion.

    The companion digraph has an arc c -> r of weight -matrix[r, c] for every
    nonzero off-diagonal entry; the cofactor is the sum over simple paths
    i -> j of the path weight times det(matrix with the path's vertices
    deleted). The digraph is built here from the matrix rather than accepted
    from the caller, because the required correspondence is easy to violate
    silently. Undefined (and rejected) for i == j.
    """
    _check_index(matrix.n, i, j)
    if i == j:
        raise ValueError("path expansion is only valid for i != j")
    from .oracle import _den, _path_sum, _path_weights, enum_paths

    companion = _companion(matrix)
    weighed = _path_weights(companion, enum_paths(companion, i, j, guard))
    return Fraction(_path_sum(weighed, lambda vs: matrix.delete_rows_cols(vs).det()), _den(companion))


def _companion(matrix: SquareMatrix) -> Multidigraph:
    """The digraph with an arc c -> r of weight -matrix[r, c] per nonzero off-diagonal entry."""
    n = matrix.n
    arcs = [
        (c, r, -matrix.entries[r][c])
        for r in range(n)
        for c in range(n)
        if r != c and matrix.entries[r][c] != 0
    ]
    return Multidigraph(n, tuple(arcs))


class MatrixTreeReport(NamedTuple):
    """Cofactor grid of L against the enumerated spanning-tree weights.

    Undirected: all n**2 cofactors must equal the total spanning-tree weight.
    Directed: cofactors are constant along each row i and equal the weight of
    trees diverging from i; tree_weights[i] is the row-i enumeration total
    (undirected reports repeat the single total n times).
    """

    directed: bool
    cofactors: SquareMatrix
    tree_weights: tuple[Fraction, ...]

    @property
    def cofactors_constant(self) -> bool:
        """Constancy pattern of the grid: per row, and across rows if undirected."""
        rows_ok = all(len(set(row)) == 1 for row in self.cofactors.entries)
        if self.directed or not rows_ok:
            return rows_ok
        return len({row[0] for row in self.cofactors.entries}) == 1

    @property
    def matches_enumeration(self) -> bool:
        return all(
            x == self.tree_weights[i]
            for i, row in enumerate(self.cofactors.entries)
            for x in row
        )

    @property
    def passed(self) -> bool:
        return self.cofactors_constant and self.matches_enumeration


def matrix_tree_check(graph: AnyGraph, guard: Guard = DEFAULT_GUARD) -> MatrixTreeReport:
    """Check every cofactor of L against the brute-force spanning-tree weights:
    the total of the trees diverging from each root (from vertex 0 alone if
    undirected), in one oracle walk per root, over the walk's den."""
    from . import oracle

    oracle._check_guard(graph, guard)  # before the elimination of adj L
    m = graph_matrix(graph)
    if m.n == 0:
        raise ValueError("matrix-tree check needs at least one vertex")
    grid = m.adjugate().transpose()
    directed = isinstance(graph, Multidigraph)
    den = oracle._den(graph)
    roots = range(graph.n) if directed else (0,)
    weights = tuple(Fraction(sum(w for _, _, w in oracle._choices(graph, r)), den) for r in roots)
    return MatrixTreeReport(directed, grid, weights if directed else weights * graph.n)


def forest_minor(graph: AnyGraph, vertices) -> Fraction:
    """det of L with the given rows/columns deleted.

    Equals the total weight of spanning forests whose root set is exactly the
    deleted vertex set; the empty set returns det L itself and deleting all
    vertices returns 1 (empty-matrix convention).
    """
    return graph_matrix(graph).delete_rows_cols(vertices).det()
