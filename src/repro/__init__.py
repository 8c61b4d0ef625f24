"""repro — Parallel Load Balancing on Constrained Client-Server Topologies.

A production-quality reproduction of Clementi, Natale & Ziccardi (SPAA
2020): the **SAER** parallel load-balancing protocol, its sibling
**RAES** (Becchetti et al., SODA 2020), the bipartite client-server
substrates they run on, sequential and parallel baselines, the theory
module implementing the paper's recurrences and bounds, and a Monte
Carlo experiment harness that regenerates every quantitative claim of
the paper (see the "Experiments" section of README.md).

Quickstart::

    import repro

    g = repro.graphs.random_regular_bipartite(n=1024, degree=64, seed=1)
    res = repro.run_saer(g, c=8.0, d=2, seed=2)
    assert res.completed and res.max_load <= 16
    print(res.rounds, res.work_per_client)

``import repro`` loads the run path (``batch``, ``core``, ``graphs``,
``parallel``, ``plan`` and what they use).  The other subpackages
(``agents``, ``analysis``, ``baselines``, ``dynamic``, ``serve``,
``theory``) load on first attribute access.
"""

import importlib

from . import batch, core, graphs, parallel, plan
from .batch import BatchResult, run_raes_batched, run_saer_batched, run_trials_batched
from .core import (
    CoupledResult,
    ProtocolParams,
    RaesPolicy,
    RunOptions,
    RunResult,
    SaerPolicy,
    Trace,
    TraceLevel,
    run_coupled,
    run_protocol,
    run_raes,
    run_saer,
)
from .errors import (
    ExperimentError,
    GraphConstructionError,
    GraphValidationError,
    NonTerminationError,
    PlanError,
    ProtocolConfigError,
    ReproError,
    TapeExhaustedError,
)
from .graphs import BipartiteGraph
from .plan import (
    BackendSpec,
    ExecSpec,
    GraphSpec,
    ResultSpec,
    RunPlan,
    SeedSpec,
    WorkSpec,
    execute,
)
from .rng import RandomTape, make_rng, spawn_rngs, spawn_seeds

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # subpackages
    "graphs",
    "core",
    "batch",
    "agents",
    "baselines",
    "theory",
    "parallel",
    "analysis",
    "dynamic",
    "plan",
    "serve",
    # execution-plan layer
    "RunPlan",
    "WorkSpec",
    "SeedSpec",
    "BackendSpec",
    "GraphSpec",
    "ExecSpec",
    "ResultSpec",
    "execute",
    # protocol API
    "run_saer",
    "run_raes",
    "run_protocol",
    "run_coupled",
    # batched (trial-vectorized) API
    "run_trials_batched",
    "run_saer_batched",
    "run_raes_batched",
    "BatchResult",
    "ProtocolParams",
    "RunOptions",
    "RunResult",
    "CoupledResult",
    "SaerPolicy",
    "RaesPolicy",
    "Trace",
    "TraceLevel",
    # substrate API
    "BipartiteGraph",
    "RandomTape",
    "make_rng",
    "spawn_seeds",
    "spawn_rngs",
    # errors
    "ReproError",
    "GraphConstructionError",
    "GraphValidationError",
    "ProtocolConfigError",
    "NonTerminationError",
    "TapeExhaustedError",
    "ExperimentError",
    "PlanError",
]

_LAZY_SUBPACKAGES = frozenset({"agents", "analysis", "baselines", "dynamic", "serve", "theory"})


def __getattr__(name: str):
    # PEP 562: import_module also binds the subpackage on this module,
    # so only the first access comes through here.
    if name in _LAZY_SUBPACKAGES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _LAZY_SUBPACKAGES)
