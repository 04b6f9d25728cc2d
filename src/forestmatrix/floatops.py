"""float64 mirror of the exact matrix operations, for large instances.

Accuracy is whatever LAPACK delivers; this backend never backs verification,
it exists so that building W and solving against it stays fast at sizes where
exact arithmetic is impractical. Its graph matrix is built from the same arc
list as the exact one, one path for both graph kinds.
"""

from __future__ import annotations

import numpy as np

from .graphs import AnyGraph, _arcs

__all__ = [
    "graph_matrix_array",
    "forest_matrix_array",
    "det_value",
    "cofactor_value",
    "accessibility_array",
    "charpoly_coeffs",
]


def graph_matrix_array(graph: AnyGraph) -> np.ndarray:
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


def forest_matrix_array(graph: AnyGraph, lam: float = 1.0) -> np.ndarray:
    return lam * np.eye(graph.n) + graph_matrix_array(graph)


def det_value(graph: AnyGraph, lam: float = 1.0) -> float:
    return float(np.linalg.det(forest_matrix_array(graph, lam)))


def cofactor_value(graph: AnyGraph, i: int, j: int, lam: float = 1.0) -> float:
    w = forest_matrix_array(graph, lam)
    n = w.shape[0]
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"cofactor index ({i}, {j}) out of range for n={n}")
    if n == 1:
        return 1.0
    minor = np.delete(np.delete(w, i, axis=0), j, axis=1)
    sign = -1.0 if (i + j) % 2 else 1.0
    return float(sign * np.linalg.det(minor))


def accessibility_array(graph: AnyGraph, lam: float = 1.0) -> np.ndarray:
    """Q = W**-1 by LU solve against the identity (partial pivoting). Raises
    LinAlgError when W is numerically singular: LAPACK meets a zero pivot, or
    the probe v = (1, ..., n) leaves |W(Qv) - v|_inf / |v|_inf above 1e-6 (the
    all-ones vector would probe nothing, since W 1 = lambda 1)."""
    w = forest_matrix_array(graph, lam)
    q = np.linalg.solve(w, np.eye(graph.n))
    v = np.arange(1.0, graph.n + 1)
    if graph.n and np.max(np.abs(w @ (q @ v) - v)) > 1e-6 * graph.n:
        raise np.linalg.LinAlgError("residual probe above tolerance")
    return q


def charpoly_coeffs(graph: AnyGraph) -> np.ndarray:
    """Coefficients of det(lambda*I + L), constant term first."""
    n = graph.n
    if n == 0:
        return np.array([1.0])
    return np.poly(-graph_matrix_array(graph))[::-1].copy()
