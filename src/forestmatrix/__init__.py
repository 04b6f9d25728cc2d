"""Exact spanning-forest algebra for weighted multigraphs and multidigraphs.

Builds the forest matrix W = I + L of a graph, computes its determinant,
cofactors and inverse (the relative forest-accessibility matrix) in exact
rational arithmetic, and ships a brute-force enumeration oracle so every
identity can be verified on small graphs.
"""

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
from .graphfile import GraphParseError, format_graph, parse_graph
from .graphs import (
    Arc,
    Edge,
    GraphValidationError,
    Multidigraph,
    Multigraph,
    contract,
    kirchhoff,
    laplacian,
    merge_parallel,
    reverse,
    to_bidirected,
)
from .linalg import (
    Polynomial,
    Rational,
    SingularMatrixError,
    SquareMatrix,
    as_rational,
)
from .oracle import (
    DEFAULT_GUARD,
    DivergingForest,
    Guard,
    GuardExceededError,
    Path,
    RootedForest,
    enum_diverging_forests,
    enum_diverging_trees,
    enum_paths,
    enum_rooted_forests,
    enum_spanning_trees,
    filter_rooted,
    filter_roots,
    set_weight,
    tree_roots,
    weight_of,
)
from .verify import CheckResult, run_all_checks

__version__ = "0.1.0"
