"""Shared fixtures: small graphs sized so the whole suite stays fast."""

from __future__ import annotations

import pytest

from repro.batch import available_kernels
from repro.graphs import (
    complete_bipartite,
    paper_extremal,
    random_regular_bipartite,
    trust_subsets,
)


@pytest.fixture(scope="session")
def regular_graph():
    """128×128 16-regular graph — the workhorse topology."""
    return random_regular_bipartite(n=128, degree=16, seed=12345)


@pytest.fixture(scope="session")
def small_regular_graph():
    """32×32 8-regular — for the slower agent-level tests."""
    return random_regular_bipartite(n=32, degree=8, seed=999)


@pytest.fixture(scope="session")
def trust_graph():
    """Godfrey-style random clusters, 128 clients, degree 12."""
    return trust_subsets(128, 128, 12, seed=777)


@pytest.fixture(scope="session")
def extremal_graph():
    """The paper's heavy-client / weak-server example, n=256."""
    return paper_extremal(256, eta=0.5, seed=4242)


@pytest.fixture(scope="session")
def dense_graph():
    """Complete bipartite 64×64 — the classic balls-into-bins setting."""
    return complete_bipartite(64, 64)


@pytest.fixture
def cext_gate(monkeypatch):
    """Run the test's graph builds on the cext round-kernel gate, set
    through ``REPRO_KERNELS``, so exact-degree builds take the compiled
    repair pass (skipped where cext cannot build)."""
    if "cext" not in available_kernels():
        pytest.skip("needs a working C compiler")
    monkeypatch.setenv("REPRO_KERNELS", "cext")
