"""The package's public surface: module exports and the float backend's mirror of `forest`."""

import importlib
import inspect
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import forestmatrix
from forestmatrix import Multigraph, SingularForestMatrixError, SquareMatrix, forest

SRC = str(Path(forestmatrix.__file__).resolve().parents[1])
MODULES = ("graphfile", "graphs", "linalg", "forest", "oracle", "verify", "floatops", "cli")

# The functions the CLI calls through its backend switch, one per float command.
FLOAT_COMMAND_FUNCTIONS = (
    "graph_matrix", "forest_matrix_report", "forest_det", "forest_cofactor",
    "accessibility", "charpoly_forest_coeffs",
)


@pytest.fixture
def floatops():
    pytest.importorskip("numpy")
    return importlib.import_module("forestmatrix.floatops")


@pytest.mark.parametrize("module", MODULES)
def test_star_import_names_exist(module):
    if module == "floatops":
        pytest.importorskip("numpy")
    exec(f"from forestmatrix.{module} import *", {})  # a stale __all__ entry raises AttributeError


def test_package_star_import_binds_all():
    namespace = {}
    exec("from forestmatrix import *", namespace)
    for name in forestmatrix.__all__:
        assert namespace[name] is getattr(forestmatrix, name)


def test_enumeration_modules_resolve_as_attributes():
    assert forestmatrix.oracle is importlib.import_module("forestmatrix.oracle")
    assert forestmatrix.verify is importlib.import_module("forestmatrix.verify")
    assert forestmatrix.run_all_checks is forestmatrix.verify.run_all_checks
    assert forestmatrix.enum_paths is forestmatrix.oracle.enum_paths
    with pytest.raises(AttributeError):
        forestmatrix.no_such_name


def test_package_public_names():
    # the names of __all__ and the six modules the package imports, eagerly or
    # on first access; dir() lists them before any is loaded
    code = "import forestmatrix; print(*(n for n in dir(forestmatrix) if n[0] != '_'))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": SRC})
    assert out.returncode == 0, out.stderr
    modules = {"forest", "graphfile", "graphs", "linalg", "oracle", "verify"}
    assert set(out.stdout.split()) == {*forestmatrix.__all__, *modules}
    assert len(forestmatrix.__all__) == len(set(forestmatrix.__all__)) == 50


def test_guard_is_one_object_in_graphs_and_oracle():
    from forestmatrix import graphs, oracle

    for name in ("Guard", "DEFAULT_GUARD", "GuardExceededError"):
        assert getattr(oracle, name) is getattr(graphs, name) is getattr(forestmatrix, name)


def test_unused_names_are_gone():
    for name in ("format_graph", "reverse", "Rational"):
        assert not hasattr(forestmatrix, name)
    assert not hasattr(forestmatrix.graphfile, "format_graph")
    assert not hasattr(forestmatrix.graphs, "reverse")
    assert not hasattr(forestmatrix.linalg, "Rational")
    for name in ("zeros", "scaled", "trace", "__add__", "__sub__"):
        assert not hasattr(SquareMatrix, name)


@pytest.mark.parametrize("name", FLOAT_COMMAND_FUNCTIONS)
def test_floatops_mirrors_the_exact_signature(floatops, name):
    exact = inspect.signature(getattr(forest, name)).parameters
    mirror = inspect.signature(getattr(floatops, name)).parameters
    assert list(mirror) == list(exact)


def test_float_accessibility_of_a_singular_w_raises_singular_forest_matrix_error(floatops):
    # W = J/3: LAPACK meets no zero pivot, the residual probe finds the singularity
    third = Fraction(-1, 3)
    triangle = Multigraph(3, ((0, 1, third), (1, 2, third), (0, 2, third)))
    with pytest.raises(SingularForestMatrixError, match="numerically singular at lambda = 1;"):
        floatops.accessibility(triangle)
