import inspect
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from forestmatrix import Multidigraph, Multigraph, linalg


@pytest.fixture
def single_edge() -> Multigraph:
    return Multigraph(2, ((0, 1, 1),))


@pytest.fixture
def unit_k3() -> Multigraph:
    return Multigraph(3, ((0, 1, 1), (1, 2, 1), (0, 2, 1)))


@pytest.fixture
def single_arc() -> Multidigraph:
    return Multidigraph(2, ((0, 1, 1),))


@pytest.fixture
def directed_3cycle() -> Multidigraph:
    return Multidigraph(3, ((0, 1, 1), (1, 2, 1), (2, 0, 1)))


@pytest.fixture
def spy(monkeypatch):
    """spy(owner, name) replaces owner.name with a recorder that delegates to it
    and returns the list of its calls: each call's arguments by parameter name,
    defaults filled in (a method's include self)."""

    def install(owner, name: str) -> list:
        original = getattr(owner, name)
        signature, calls = inspect.signature(original), []

        def recorded(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            calls.append(bound.arguments)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, recorded)
        return calls

    return install


@pytest.fixture
def routes(monkeypatch) -> list:
    """The route of each linalg._forward run a kernel starts, as a set of tags:
    "restart" if a symmetric run restarted on full rows at a zero pivot,
    "swap" if the full rows swapped in a row at a zero pivot, and "singular" if
    the run stopped at a zero pivot with a zero column below it (the block is
    singular); empty if no pivot was zero."""
    runs, open_runs = [], []
    forward = linalg._forward

    def counted(*args, **kwargs):
        open_runs.append(set())
        try:
            run = forward(*args, **kwargs)
        finally:
            tags = open_runs.pop()
        if isinstance(run, int):
            tags.add("singular")
        elif run[4]:
            tags.add("swap")
        if open_runs:  # called from a symmetric run: its restart
            open_runs[-1] |= tags | {"restart"}
        else:
            runs.append(frozenset(tags))
        return run

    monkeypatch.setattr(linalg, "_forward", counted)
    return runs
