"""Serving golden: the exact outputs of ``loadgen.run_inprocess``.

``tests/data/serve_golden.json`` pins, per replay, what the driven load
generator reports and what the service counted: the outcome tally, the
retry reasons in first-seen order, ``submitted`` / ``resubmitted`` /
``lost``, ``rounds``, the bincounts of first-attempt and end-to-end
latencies, ``stats()``'s ``assigned_total`` / ``dropped_total`` /
``in_flight``, and the full state of the ``serve_assign_latency_rounds``
histogram.  The cases reach every way a ball resolves: assignment,
isolated-client drops, ``max_wait_rounds`` timeouts, ``max_pending``
backpressure, brownout shedding, crash faults under a health policy
with churn, Byzantine duplicate balls (tag -1, never a caller's), and
both round-kernel gates.  perfbench's digests see only the plain and
the timeout-plus-retry paths.

Regenerate only when a serving output is meant to change::

    PYTHONPATH=src python tests/test_serve_golden.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.batch.kernels import available_kernels
from repro.dynamic.churn import RewireChurn
from repro.faults import FaultSchedule, FaultSpec, HealthPolicy
from repro.graphs import BipartiteGraph, trust_subsets
from repro.serve import SaerService, ServeConfig, ServingState
from repro.serve.loadgen import RetryPolicy, make_arrivals, run_inprocess, sample_trace

GOLDEN = Path(__file__).parent / "data" / "serve_golden.json"
N = 256
LATENCY = "serve_assign_latency_rounds"


def _graph(isolated=()):
    g = trust_subsets(N, N, 8, seed=3)
    if not isolated:
        return g
    indptr, indices = g.client_indptr, g.client_indices
    keep = np.ones(indices.size, dtype=bool)
    for v in isolated:
        keep[indptr[v]: indptr[v + 1]] = False
    cs = np.zeros(indices.size + 1, dtype=np.int64)
    np.cumsum(keep, out=cs[1:])
    return BipartiteGraph.from_csr(N, N, cs[indptr], indices[keep], name="isolated")


def _trace(kind, rate, rounds=30, seed=11, **kw):
    return sample_trace(make_arrivals(kind, rate, **kw), N, rounds, seed)


def _retry(attempts=4, seed=2):
    return RetryPolicy(max_attempts=attempts, base_delay=1.0, max_delay=8.0, seed=seed)


def _single(kernel="numpy", graph=None, recovery=8, churn=None, faults=None, **cfg):
    state = ServingState(
        graph if graph is not None else _graph(), 2.0, 4, recovery=recovery,
        churn=churn, seed=5, kernel=kernel, track_tags=True, faults=faults,
    )
    cfg.setdefault("max_batch", 1 << 30)
    return SaerService(state, ServeConfig(**cfg))


def _crash_health_churn():
    faults = FaultSchedule((FaultSpec("crash", 0.3, start=5, end=20),), seed=4)
    return _single(
        "cext", churn=RewireChurn(0.05), faults=faults, max_wait_rounds=6,
        health=HealthPolicy(fail_streak=2, quarantine_rounds=8),
    )


def _byz_dup():
    faults = FaultSchedule((FaultSpec("byz_client_dup", 0.1, start=0),), seed=6)
    return _single("numpy", faults=faults, max_wait_rounds=8)


POISSON = _trace("poisson", 0.5)
HOTSPOT = _trace("hotspot", 0.6, hot_fraction=0.05)

# name -> (gate, build the service, trace, retry policy or None)
CASES = {
    "poisson-numpy": ("numpy", lambda: _single("numpy"), POISSON, None),
    "poisson-cext": ("cext", lambda: _single("cext"), POISSON, None),
    "burst-cext": (
        "cext", lambda: _single("cext"),
        _trace("burst", 0.5, batch_size=96, period=2), None,
    ),
    "hotspot-timeout-numpy": (
        "numpy", lambda: _single("numpy", max_wait_rounds=6), HOTSPOT, None,
    ),
    "hotspot-timeout-retry-cext": (
        "cext", lambda: _single("cext", max_wait_rounds=6), HOTSPOT, _retry(),
    ),
    "backpressure-numpy": (
        "numpy", lambda: _single("numpy", max_pending=150), _trace("poisson", 0.9), None,
    ),
    "backpressure-retry-cext": (
        "cext", lambda: _single("cext", max_pending=150), _trace("poisson", 0.9), _retry(6),
    ),
    "brownout-retry-numpy": (
        "numpy",
        lambda: _single(
            "numpy", recovery=None, max_wait_rounds=8,
            brownout_threshold=0.05, brownout_shed=0.6,
        ),
        _trace("poisson", 1.2), _retry(),
    ),
    "isolated-numpy": (
        "numpy", lambda: _single("numpy", graph=_graph(isolated=(7, 100, 200))), POISSON, None,
    ),
    "isolated-retry-cext": (
        "cext",
        lambda: _single("cext", graph=_graph(isolated=(7, 100, 200)), max_wait_rounds=6),
        HOTSPOT, _retry(),
    ),
    "crash-health-churn-retry-cext": (
        "cext", _crash_health_churn, _trace("poisson", 0.6), _retry(5),
    ),
    "byz-dup-numpy": ("numpy", _byz_dup, _trace("poisson", 0.6), None),
}


def _bincount(a) -> list[int]:
    return np.bincount(a).tolist() if a.size else []


def replay(case: str) -> dict:
    _gate, build, trace, retry = CASES[case]
    service = build()
    run = run_inprocess(service, trace, drain_rounds=400, retry=retry)
    latency = service.metrics.get(LATENCY).state_dict()
    stats = run["stats"]
    return {
        "tally": run["tally"],
        "retry_reasons": [[k, v] for k, v in run["retry_reasons"].items()],
        "submitted": run["submitted"],
        "resubmitted": run["resubmitted"],
        "lost": run["lost"],
        "rounds": run["rounds"],
        "latency_hist": _bincount(run["latencies"]),
        "latency_total_hist": _bincount(run["latencies_with_retries"]),
        "assigned_total": stats["assigned_total"],
        "dropped_total": stats["dropped_total"],
        "in_flight": stats["in_flight"],
        LATENCY: latency,
    }


def test_golden_covers_every_case():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


def test_cases_reach_every_resolution_path():
    golden = json.loads(GOLDEN.read_text())
    reasons = {r for case in golden.values() for r, _ in case["retry_reasons"]}
    assert reasons == {"timeout", "backpressure", "brownout"}
    assert any(case["tally"]["dropped"] for case in golden.values())
    assert any(case["resubmitted"] and case["lost"] for case in golden.values())


@pytest.mark.parametrize("case", sorted(CASES))
def test_replay_matches_golden(case):
    if CASES[case][0] not in available_kernels():
        pytest.skip(f"kernel gate {CASES[case][0]!r} unavailable")
    assert replay(case) == json.loads(GOLDEN.read_text())[case]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_serve_golden.py --write")
    GOLDEN.write_text(
        json.dumps({case: replay(case) for case in sorted(CASES)}, indent=1, sort_keys=True)
        + "\n"
    )
