"""Exact spanning-forest algebra for weighted multigraphs and multidigraphs.

Builds the forest matrix W = I + L of a graph, computes its determinant,
cofactors and inverse (the relative forest-accessibility matrix) in exact
rational arithmetic, and ships a brute-force enumeration oracle so every
identity can be verified on small graphs.

The enumeration modules `oracle` and `verify`, and the names exported from
them, are imported on first access (PEP 562), so a process that only
computes matrix quantities never compiles them.
"""

from importlib import import_module as _import_module

from .forest import (
    AccessibilityMatrix,
    ForestMatrixReport,
    MatrixTreeReport,
    SingularForestMatrixError,
    accessibility,
    charpoly_forest_coeffs,
    cofactor_poly,
    forest_cofactor,
    forest_det,
    forest_matrix,
    forest_matrix_report,
    forest_minor,
    graph_matrix,
    matrix_tree_check,
    path_expansion_cofactor,
    signed_cofactor_poly,
)
from .graphfile import GraphParseError, parse_graph
from .graphs import (
    DEFAULT_GUARD,
    Arc,
    Edge,
    GraphValidationError,
    Guard,
    GuardExceededError,
    Multidigraph,
    Multigraph,
    contract,
    kirchhoff,
    laplacian,
    merge_parallel,
    to_bidirected,
)
from .linalg import (
    Polynomial,
    SingularMatrixError,
    SquareMatrix,
    as_rational,
)

__version__ = "0.1.0"

# name -> the submodule it is imported from on first access
_LAZY = {
    "oracle": "oracle",
    "DivergingForest": "oracle",
    "Path": "oracle",
    "RootedForest": "oracle",
    "enum_diverging_forests": "oracle",
    "enum_diverging_trees": "oracle",
    "enum_paths": "oracle",
    "enum_rooted_forests": "oracle",
    "enum_spanning_trees": "oracle",
    "filter_rooted": "oracle",
    "filter_roots": "oracle",
    "set_weight": "oracle",
    "tree_roots": "oracle",
    "weight_of": "oracle",
    "verify": "verify",
    "CheckResult": "verify",
    "run_all_checks": "verify",
}

__all__ = [
    "AccessibilityMatrix",
    "ForestMatrixReport",
    "MatrixTreeReport",
    "SingularForestMatrixError",
    "accessibility",
    "charpoly_forest_coeffs",
    "cofactor_poly",
    "forest_cofactor",
    "forest_det",
    "forest_matrix",
    "forest_matrix_report",
    "forest_minor",
    "graph_matrix",
    "matrix_tree_check",
    "path_expansion_cofactor",
    "signed_cofactor_poly",
    "GraphParseError",
    "parse_graph",
    "DEFAULT_GUARD",
    "Arc",
    "Edge",
    "GraphValidationError",
    "Guard",
    "GuardExceededError",
    "Multidigraph",
    "Multigraph",
    "contract",
    "kirchhoff",
    "laplacian",
    "merge_parallel",
    "to_bidirected",
    "Polynomial",
    "SingularMatrixError",
    "SquareMatrix",
    "as_rational",
    *(name for name, module in _LAZY.items() if name != module),
]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = _import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
