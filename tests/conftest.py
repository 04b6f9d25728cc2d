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
def fallbacks(monkeypatch) -> list:
    """One entry per call of linalg._nonsingular, the Gauss-Jordan route that
    inverse takes at a zero diagonal pivot."""
    calls = []
    nonsingular = linalg._nonsingular
    monkeypatch.setattr(linalg, "_nonsingular", lambda *args: calls.append(1) or nonsingular(*args))
    return calls
