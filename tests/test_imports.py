"""What ``import repro`` and the row and replay paths load.

The checks run in a fresh interpreter, because this process has already
imported whatever the rest of the suite needed.  scipy stays a
dependency, but only intervals at a level other than 0.95 and
``theory.concentration`` use it (``tests/test_analysis.py`` pins the
0.95 literal against ``ndtri``); the reference engine's FULL-level
metric traces run on numpy alone.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import repro

LAZY = ("agents", "analysis", "baselines", "dynamic", "serve", "theory")
TESTS = Path(__file__).resolve().parent


def _python(code: str) -> str:
    """Run ``code`` in a fresh interpreter that imports this checkout."""
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, str(TESTS), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True, default=lambda x: x.tolist())


def small_runs() -> str:
    """E1 and E6 rows on a tiny batched grid and a 20-round trust replay."""
    from repro.experiments.runners import run_e01_completion, run_e06_c_threshold
    from repro.graphs.families import build_point_graph
    from repro.serve import loadgen
    from repro.serve.service import SaerService, ServeConfig
    from repro.serve.state import ServingState

    e1, _ = run_e01_completion(ns=(64, 128), trials=2, seed=3, processes=1, backend="batched")
    e6, _ = run_e06_c_threshold(
        n=128, cs=(1.0, 2.0), trials=2, seed=4, processes=1, backend="batched"
    )
    graph = build_point_graph({"family": "trust", "n": 256}, 5)
    state = ServingState(graph, 2.0, 4, recovery=8, seed=9, track_tags=True)
    service = SaerService(state, ServeConfig(max_batch=1 << 30, max_wait_rounds=4))
    trace = loadgen.sample_trace(loadgen.make_arrivals("hotspot", 0.4), 256, 20, 7)
    run = loadgen.run_inprocess(
        service, trace, retry=loadgen.RetryPolicy(max_attempts=3, seed=11)
    )
    replay = {k: run[k] for k in ("submitted", "tally", "resubmitted", "lost", "rounds")}
    for k in ("latencies", "latencies_with_retries"):
        assert run[k].dtype == np.int64
        replay[k] = run[k]
    return _json({"e1": e1, "e6": e6, "replay": replay})


class TestImportRepro:
    def test_leaves_scipy_and_lazy_subpackages_out(self):
        code = (
            "import sys, json\n"
            "import repro\n"
            f"names = ['scipy', 'numpy.testing', 'asyncio', *('repro.' + n for n in {LAZY!r})]\n"
            "print(json.dumps([m for m in names if m in sys.modules]))\n"
        )
        assert json.loads(_python(code)) == []

    def test_lazy_subpackages_still_reachable(self):
        code = (
            "import repro\n"
            "assert repro.serve.SaerService.__name__ == 'SaerService'\n"
            f"assert set({LAZY!r}) <= set(dir(repro))\n"
            "from repro import *\n"
            "missing = [n for n in repro.__all__ if n not in globals()]\n"
            "assert not missing, missing\n"
            "assert theory is repro.theory\n"
            "try:\n"
            "    repro.no_such_name\n"
            "except AttributeError:\n"
            "    print('ok')\n"
        )
        assert _python(code).strip() == "ok"


class TestWithoutScipy:
    def test_rows_and_replay_match_without_scipy(self):
        """The driven replay never awaits, so it runs without asyncio too."""
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"  # any scipy import now raises
            "sys.modules['asyncio'] = None\n"
            "import test_imports\n"
            "print(test_imports.small_runs())\n"
        )
        assert _python(code).strip() == small_runs()

    def test_full_trace_leaves_scipy_out(self):
        """E4 and E10 read FULL traces; their neighbourhood sums are
        numpy segment sums, so a traced run never loads scipy."""
        code = (
            "import sys\n"
            "from repro.core.config import ProtocolParams\n"
            "from repro.core.engine import run_protocol\n"
            "from repro.core.metrics import TraceLevel\n"
            "from repro.graphs import near_regular\n"
            "g = near_regular(256, 8, 24, seed=1)\n"
            "res = run_protocol(g, ProtocolParams(c=1.2, d=4), 'saer', seed=2,\n"
            "                   trace=TraceLevel.FULL)\n"
            "assert len(res.trace.s_t) == res.rounds > 0\n"
            "print('scipy.sparse' in sys.modules)\n"
        )
        assert _python(code).strip() == "False"

