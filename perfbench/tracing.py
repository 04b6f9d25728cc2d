"""Timing wrappers around the public functions of each forestmatrix module.

The wrappers live here, outside the program: `Tracer.install` replaces every
name binding of a traced function in the loaded `forestmatrix` modules (for
example `verify.forest_det` as well as `forest.forest_det`) and the traced
`SquareMatrix` methods on the class, and `Tracer.uninstall` puts the
originals back. Each call becomes one span (name, start, end, parent span,
job id) kept in memory; `aggregate` turns spans into per-layer metrics, with
a span's self time being its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import defaultdict

MODULES = ("graphfile", "graphs", "linalg", "forest", "oracle", "verify", "floatops", "cli")

# Per-function metrics are reported for these calls, the ones an optimisation
# of ROADMAP items 2-5 is most likely to move. Every other public function of
# a module is still traced, so its time lands in the module's totals.
REPORTED = {
    "linalg": ("det", "cofactor", "inverse", "char_poly", "adjugate",
               "principal_minor_sum", "delete_rows_cols", "SquareMatrix"),
    "forest": ("cofactor_poly", "signed_cofactor_poly", "accessibility",
               "charpoly_forest_coeffs", "path_expansion_cofactor", "matrix_tree_check"),
    "oracle": ("enum_rooted_forests", "enum_diverging_forests", "enum_spanning_trees",
               "enum_diverging_trees", "enum_paths", "filter_rooted", "filter_diverging",
               "filter_roots", "set_weight"),
    "graphs": ("laplacian", "kirchhoff", "contract", "to_bidirected", "merge_parallel"),
    "graphfile": ("parse_graph",),
    "floatops": ("det_value", "accessibility_array", "charpoly_coeffs"),
    "cli": ("main",),
}

# Enumerations also report how many items they returned.
ENUMERATIONS = ("enum_rooted_forests", "enum_diverging_forests", "enum_spanning_trees",
                "enum_diverging_trees", "enum_paths")
_COUNTED = frozenset(f"oracle.{fn}" for fn in ENUMERATIONS)

# Called once per matrix entry, subset or forest: wrapping them would cost
# more than the work they do, so their time stays in their caller's self time.
PER_ITEM = frozenset({"as_rational", "weight_of", "diverging_roots",
                      "diverging_component_root", "surviving_index"})

SQUARE_MATRIX_METHODS = ("det", "cofactor", "inverse", "char_poly", "adjugate",
                         "principal_minor_sum", "delete_rows_cols")


def metric_names() -> list[str]:
    """Every per-layer metric name, in report order."""
    names = []
    for module in MODULES:
        names += [f"{module}.self_s", f"{module}.calls", f"{module}.raised"]
        for fn in REPORTED.get(module, ()):
            names += [f"{module}.{fn}.self_s", f"{module}.{fn}.calls"]
            if module == "oracle" and fn in ENUMERATIONS:
                names.append(f"{module}.{fn}.members")
    return names


def _public_functions(module: types.ModuleType):
    names = getattr(module, "__all__", None) or ("main",)
    for name in names:
        obj = getattr(module, name, None)
        if (isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__
                and name not in PER_ITEM):
            yield name, obj


class Tracer:
    """Span recorder for one process; `job` tags the spans of the running job."""

    def __init__(self) -> None:
        self.names: list[str] = []
        # (name index, start, end, parent span index or -1, job, raised, members)
        self.spans: list = []
        self.job = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap the traced functions of every loaded forestmatrix module."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        linalg = None
        for short in MODULES:
            module = sys.modules.get(f"forestmatrix.{short}")
            if module is None:
                continue
            for name, fn in _public_functions(module):
                wrappers[id(fn)] = self._wrap(f"{short}.{name}", fn)
            if short == "linalg":
                linalg = module
        loaded = [m for key, m in list(sys.modules.items())
                  if m is not None and (key == "forestmatrix" or key.startswith("forestmatrix."))]
        for module in loaded:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patch(module, attr, wrapper)
        if linalg is not None:
            cls = linalg.SquareMatrix
            for method in SQUARE_MATRIX_METHODS:
                self._patch(cls, method, self._wrap(f"linalg.{method}", vars(cls)[method]))
            self._patch(cls, "__init__", self._wrap("linalg.SquareMatrix", vars(cls)["__init__"]))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn):
        name_id = self._name_id(name)
        counts = name in _COUNTED
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter, self

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = (name_id, start, clock(), parent, tracer.job, 1, 0)
                stack.pop()
                raise
            end = clock()
            stack.pop()
            spans[index] = (name_id, start, end, parent, tracer.job, 0,
                            len(result) if counts else 0)
            return result

        return functools.update_wrapper(traced, fn)

    def extend(self, names: list[str], spans: list, job) -> None:
        """Append spans recorded by another process, re-tagged with `job`."""
        remap = [self._name_id(n) for n in names]
        base = len(self.spans)
        for name_id, start, end, parent, _job, raised, members in spans:
            self.spans.append((remap[name_id], start, end, parent + base if parent >= 0 else -1,
                               job, raised, members))

    def _name_id(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            self.names.append(name)
            return len(self.names) - 1

    def write(self, path) -> None:
        """Write every span as one tab-separated line."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("name\tstart\tend\tparent\tjob\traised\tmembers\n")
            for name_id, start, end, parent, job, raised, members in self.spans:
                out.write(f"{self.names[name_id]}\t{start!r}\t{end!r}\t{parent}\t{job}\t"
                          f"{raised}\t{members}\n")


def aggregate(names: list[str], spans: list, scale: float = 1.0) -> dict[str, float]:
    """Per-layer totals: self time, calls, raised and enumerated members.

    Keys are `<module>.self_s|calls|raised` and `<module>.<function>.<stat>`
    for every traced function (not only the reported ones). Self times are
    multiplied by `scale`.
    """
    child_time = [0.0] * len(spans)
    for _name, start, end, parent, *_ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    for index, (name_id, start, end, _parent, _job, raised, members) in enumerate(spans):
        name = names[name_id]
        module = name.split(".", 1)[0]
        own = (end - start - child_time[index]) * scale
        for prefix in (module, name):
            totals[f"{prefix}.self_s"] += own
            totals[f"{prefix}.calls"] += 1
        totals[f"{module}.raised"] += raised
        totals[f"{name}.members"] += members
    return totals
