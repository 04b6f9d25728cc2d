"""float64 mirror of the exact forest functions the CLI calls, for large instances.

Each function has the name and parameters of its exact counterpart in
`forest` and returns the same shape of result, holding numpy values: an array
for a matrix or a coefficient list, a float64 for a determinant or cofactor.
`lam` may be exact; each function converts it with float(), so a lambda
beyond binary64 raises OverflowError. Accuracy is whatever LAPACK delivers;
this backend never backs verification, it exists so that building W and
solving against it stays fast at sizes where exact arithmetic is impractical.
Its graph matrix is built from the same arc list as the exact one, one path
for both graph kinds.
"""

from __future__ import annotations

import numpy as np

from .forest import AccessibilityMatrix, ForestMatrixReport, SingularForestMatrixError
from .graphs import AnyGraph, _arcs
from .linalg import _check_index

__all__ = [
    "graph_matrix",
    "forest_matrix_report",
    "forest_det",
    "forest_cofactor",
    "accessibility",
    "charpoly_forest_coeffs",
]


def graph_matrix(graph: AnyGraph) -> np.ndarray:
    """Laplacian / Kirchhoff matrix as a float64 array. np.add.at adds in arc
    order, so each entry receives its weights in edge order."""
    arcs = _arcs(graph)
    tail = np.array([a[0] for a in arcs], dtype=np.intp)
    head = np.array([a[1] for a in arcs], dtype=np.intp)
    w = np.array([float(a[2]) for a in arcs])
    m = np.zeros((graph.n, graph.n))
    np.add.at(m, (head, tail), -w)
    np.add.at(m, (head, head), w)
    return m


def _forest_matrix(graph: AnyGraph, lam) -> np.ndarray:
    return float(lam) * np.eye(graph.n) + graph_matrix(graph)


def forest_matrix_report(graph: AnyGraph, lam=1) -> ForestMatrixReport:
    w = _forest_matrix(graph, lam)
    return ForestMatrixReport(w, np.linalg.det(w), float(lam))


def forest_det(graph: AnyGraph, lam=1) -> np.float64:
    return np.linalg.det(_forest_matrix(graph, lam))


def forest_cofactor(graph: AnyGraph, i: int, j: int, lam=1) -> np.float64:
    w = _forest_matrix(graph, lam)
    n = w.shape[0]
    _check_index(n, i, j)
    if n == 1:
        return np.float64(1.0)
    minor = np.delete(np.delete(w, i, axis=0), j, axis=1)
    return -np.linalg.det(minor) if (i + j) % 2 else np.linalg.det(minor)


def accessibility(graph: AnyGraph, lam=1) -> AccessibilityMatrix:
    """Q = W**-1 by LU solve against the identity (partial pivoting). Raises
    SingularForestMatrixError when W is numerically singular: LAPACK meets a
    zero pivot, or the probe v = (1, ..., n) leaves |W(Qv) - v|_inf / |v|_inf
    above 1e-6 (the all-ones vector would probe nothing, since W 1 = lambda 1)."""
    w = _forest_matrix(graph, lam)
    try:
        q = np.linalg.solve(w, np.eye(graph.n))
        v = np.arange(1.0, graph.n + 1)
        if graph.n and np.max(np.abs(w @ (q @ v) - v)) > 1e-6 * graph.n:
            raise np.linalg.LinAlgError("residual probe above tolerance")
    except np.linalg.LinAlgError:
        raise SingularForestMatrixError(
            f"W = lambda*I + L is numerically singular at lambda = {lam}; "
            "the accessibility matrix does not exist"
        ) from None
    return AccessibilityMatrix(q)


def charpoly_forest_coeffs(graph: AnyGraph) -> np.ndarray:
    """Coefficients of det(lambda*I + L), constant term first."""
    n = graph.n
    if n == 0:
        return np.array([1.0])
    return np.poly(-graph_matrix(graph))[::-1].copy()
