"""The paper's primary contribution: the SAER protocol (and RAES sibling).

Public surface:

* :func:`run_saer` / :func:`run_raes` — one protocol execution on a
  graph, returning a :class:`~repro.core.results.RunResult`.
* :class:`ProtocolParams` — the ``(c, d)`` pair of Algorithm 1.
* :class:`SaerPolicy` / :class:`RaesPolicy` — server-side decision rules
  (burned vs saturated semantics), usable with the generic engine.
* :func:`run_protocol` — the generic synchronous round engine.
* :func:`run_coupled` — SAER and RAES on one shared random tape
  (slot-level coupling, Corollary 2).
* :class:`TraceLevel` and :class:`Trace` — per-round measurement of the
  proof quantities ``S_t``, ``K_t``, ``r_t(N(v))``.
"""

from .config import ProtocolParams, RunOptions
from .coupling import CoupledResult, run_coupled
from .engine import run_protocol, run_raes, run_saer
from .metrics import Trace, TraceLevel
from .policies import RaesPolicy, SaerPolicy, ServerPolicy
from .results import RunResult

__all__ = [
    "ProtocolParams",
    "RunOptions",
    "SaerPolicy",
    "RaesPolicy",
    "ServerPolicy",
    "run_protocol",
    "run_saer",
    "run_raes",
    "run_coupled",
    "CoupledResult",
    "Trace",
    "TraceLevel",
    "RunResult",
]
