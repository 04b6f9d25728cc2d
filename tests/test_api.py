"""The package's public surface: module exports and the float backend's mirror of `forest`."""

import copy
import importlib.util
import inspect
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import forestmatrix
from forestmatrix import (
    CheckResult,
    Guard,
    Multidigraph,
    Multigraph,
    Polynomial,
    SingularForestMatrixError,
    SquareMatrix,
    forest,
)

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


def test_the_benchmark_tracer_finds_the_names_it_patches():
    # perfbench/tracing.py, loaded read-only, wraps functions and SquareMatrix
    # methods by the names it lists; a rename in src/ fails here with the name
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    numpy = importlib.util.find_spec("numpy") is not None
    for short in tracing.MODULES:
        if short != "floatops" or numpy:
            importlib.import_module(f"forestmatrix.{short}")
        else:
            assert importlib.util.find_spec(f"forestmatrix.{short}"), short
    assert [name for name in tracing.SQUARE_MATRIX_METHODS if name not in vars(SquareMatrix)] == []
    loaded = [m for key, m in sys.modules.items() if key.split(".")[0] == "forestmatrix"]
    before = [(owner, dict(vars(owner))) for owner in (*loaded, SquareMatrix)]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        forestmatrix.forest_det(Multigraph(2, ((0, 1, 1),)))
        SquareMatrix(((1, 2), (3, 4))).det()
    finally:
        tracer.uninstall()
    assert {"forest.forest_det", "linalg.det", "linalg.SquareMatrix"} <= set(tracer.names)
    for owner, attrs in before:
        assert all(vars(owner)[name] is value for name, value in attrs.items()), owner


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


# One value of each validated value type, with each field name and the repr it prints.
VALUES = [
    (SquareMatrix(((1, 2), (3, "1/2"))), ("entries",),
     "SquareMatrix(entries=((Fraction(1, 1), Fraction(2, 1)), (Fraction(3, 1), Fraction(1, 2))))"),
    (Polynomial((0, 1)), ("coeffs",), "Polynomial(coeffs=(Fraction(0, 1), Fraction(1, 1)))"),
    (Multigraph(2, ((0, 1, 1),)), ("n", "edges"),
     "Multigraph(n=2, edges=(Edge(u=0, v=1, w=Fraction(1, 1)),))"),
    (Multidigraph(2, ((0, 1, "1/2"),)), ("n", "arcs"),
     "Multidigraph(n=2, arcs=(Arc(tail=0, head=1, w=Fraction(1, 2)),))"),
]
VALUE_IDS = ["SquareMatrix", "Polynomial", "Multigraph", "Multidigraph"]


class TestValueTypes:
    """SquareMatrix, Polynomial, Multigraph and Multidigraph are immutable values:
    equal only to a value of the same type with equal fields."""

    @pytest.mark.parametrize("value, fields, text", VALUES, ids=VALUE_IDS)
    def test_repr(self, value, fields, text):
        assert repr(value) == text

    @pytest.mark.parametrize("value, fields, text", VALUES, ids=VALUE_IDS)
    def test_assignment_and_deletion_raise(self, value, fields, text):
        for name in (*fields, "other"):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert repr(value) == text

    @pytest.mark.parametrize("value, fields, text", VALUES, ids=VALUE_IDS)
    def test_keyword_construction_and_copies_are_equal(self, value, fields, text):
        cls = type(value)
        keyword = cls(**{name: getattr(value, name) for name in fields})
        for twin in (keyword, copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is cls and twin == value and hash(twin) == hash(value)

    def test_equal_values_hash_equal(self):
        pairs = [
            (SquareMatrix(((1, 0), (0, 1))), SquareMatrix.identity(2)),
            (Polynomial((Fraction(1, 2), 3)), Polynomial(("1/2", "3"))),
            (Multigraph(3, ((0, 1, 2),)), Multigraph(3, [(0, 1, "2")])),
            (Multidigraph(3, ((2, 0, Fraction(1, 3)),)), Multidigraph(3, [[2, 0, "1/3"]])),
        ]
        for a, b in pairs:
            assert a == b and not a != b
            assert hash(a) == hash(b)
            assert len({a, b}) == 1

    def test_equality_is_type_strict(self):
        assert Multigraph(2) != Multidigraph(2)
        assert Multigraph(2, ((0, 1, 1),)).instances == Multidigraph(2, ((0, 1, 1),)).instances
        assert Multigraph(2, ((0, 1, 1),)) != Multidigraph(2, ((0, 1, 1),))
        assert SquareMatrix(((1,),)) != Polynomial((1,))
        assert Multigraph(2) != (2, ())
        assert SquareMatrix(((1,),)) != ((Fraction(1),),)
        assert Multigraph(2, ((0, 1, 1),)) != Multigraph(2, ((0, 1, 2),))
        assert Multigraph(2) != Multigraph(3)

    def test_positional_and_keyword_defaults(self):
        for cls, field in ((Multigraph, "edges"), (Multidigraph, "arcs")):
            default = cls(2)
            assert getattr(default, field) == ()
            assert default == cls(n=2) == cls(2, ()) == cls(n=2, **{field: ()})
        assert SquareMatrix(((1,),)) == SquareMatrix(entries=((1,),))
        assert Polynomial((1, 2)) == Polynomial(coeffs=(1, 2))
        assert Guard() == Guard(8, 16) == Guard(max_vertices=8, max_instances=16)
        assert Guard(10) == Guard(max_vertices=10) and Guard(10).max_instances == 16
        check = CheckResult("name", True)
        assert (check.skipped, check.detail) == (False, "")
        assert check == CheckResult(name="name", passed=True, skipped=False, detail="")


@pytest.mark.parametrize("call, expected", [
    (lambda f: f.forest_cofactor(Multigraph(2, ((0, 1, 1),)), 0, 2),
     IndexError("cofactor index (0, 2) out of range for n=2")),
    (lambda f: f.forest_cofactor(Multigraph(2, ((0, 1, 1),)), -1, 0),
     IndexError("cofactor index (-1, 0) out of range for n=2")),
    (lambda f: f.forest_cofactor(Multigraph(2, ((0, 1, 1),)), True, 0),
     TypeError("index True is a bool, not an integer")),
    (lambda f: f.forest_cofactor(Multigraph(1), 0, 0, 5), 1.0),  # the minor is the empty matrix
    (lambda f: f.charpoly_forest_coeffs(Multigraph(0)).tolist(), [1.0]),  # det of the empty matrix
], ids=["cofactor-2", "cofactor-minus-1", "cofactor-bool", "cofactor-n1", "charpoly-n0"])
def test_float_edge_cases(floatops, call, expected):
    if isinstance(expected, Exception):
        with pytest.raises(type(expected)) as raised:
            call(floatops)
        assert str(raised.value) == str(expected)
    else:
        assert call(floatops) == expected
