"""What the benchmark's runs rely on, checked without running one.

A traced perfbench run wraps library names from the outside
(``perfbench/tracer.py``'s ``patch``).  A name it can no longer resolve
is dropped with a warning, and the run's summary then silently lacks
that layer's metrics, so a rename or move in ``src/`` shows up only as a
refused benchmark check.  These tests resolve every trace target the way
``patch`` does, and pin the checker CI runs on each run's last line
(``scripts/check_perfbench_result.py``).  Nothing under ``perfbench/``
is modified.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load(path: Path, name: str):
    """Import the file ``path`` as module ``name`` (registered, as its
    dataclasses need)."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    # workloads.py imports its sibling as ``tracer``.
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        yield _load(ROOT / "perfbench" / "workloads.py", "perfbench_workloads")
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
        for name in ("perfbench_workloads", "tracer"):
            sys.modules.pop(name, None)


def _resolve(where: str):
    """What ``tracer.patch`` would wrap for ``where``, without wrapping it."""
    module_name, _, attr_path = where.partition(":")
    module = importlib.import_module(module_name)
    owner_name, _, attr = attr_path.rpartition(".")
    if owner_name:
        # patch reads the class's own __dict__: an inherited method is dropped.
        return getattr(module, owner_name).__dict__[attr]
    return getattr(module, attr)


def test_every_trace_target_resolves(workloads):
    wheres = {t.where for w in workloads.WORKLOADS.values() for t in workloads.trace_targets(w)}
    assert len(wheres) >= 29
    for where in sorted(wheres):
        target = _resolve(where)
        if isinstance(target, (classmethod, staticmethod)):
            target = target.__func__
        assert callable(target), where


def test_round_kernel_accessors_stay_out_of_batch_kernel():
    """perfbench times every ``Kernel`` method ending in ``round_fn`` as
    ``batch.kernel``; the repair pass and the stub shuffle are graph
    construction."""
    from repro.batch.kernels import Kernel

    methods = [n for n, _ in inspect.getmembers(Kernel, inspect.isfunction)]
    assert "repair_pass_fn" in methods
    assert "shuffle_fn" in methods
    assert sorted(n for n in methods if n.endswith("round_fn")) == [
        "run_round_fn", "serve_round_fn"
    ]


def test_seed_count_hook_sees_one_sized_spawn_per_plan(monkeypatch):
    """The traced ``rng.seeds`` count is ``len()`` of what
    ``repro.rng:spawn_seeds`` returns, summed over its calls: that
    needs a sized sequence, and one call per plan (640 on ``sweep-e6``)."""
    from collections.abc import Sequence

    from repro import plan as plan_mod
    from repro import rng
    from repro.experiments.runners import run_e06_c_threshold

    spawned = []
    real = rng.spawn_seeds

    def counting(seed, n):
        out = real(seed, n)
        spawned.append(len(out))
        return out

    assert isinstance(real(0, 3), Sequence) and len(real(0, 3)) == 3
    # Rebind every alias, as the tracer's patch does.
    aliases = [
        m for m in list(sys.modules.values())
        if (getattr(m, "__name__", None) or "").startswith("repro")
        and getattr(m, "spawn_seeds", None) is real
    ]
    assert plan_mod in aliases
    for module in aliases:
        monkeypatch.setattr(module, "spawn_seeds", counting)
    run_e06_c_threshold(
        n=64, cs=(1.5, 4.0), trials=3, seed=1, processes=1, backend="batched",
        share_graph=True,
    )
    assert spawned == [2 * 3]


@pytest.fixture(scope="module")
def checker():
    return _load(ROOT / "scripts" / "check_perfbench_result.py", "check_perfbench_result")


def _summary(names, **overrides):
    out = {
        "correct": True, "attempted": 96, "failed": 0,
        "metrics": {n: {"value": 1.5, "unit": "s"} for n in names},
    }
    out.update(overrides)
    return json.dumps(out)


@pytest.mark.parametrize("trace", [0, 1])
def test_checker_accepts_a_full_summary(checker, trace):
    names = checker.required_names(trace)
    assert names
    assert checker.problems(_summary(names), names) == []


def test_checker_rejects(checker):
    names = checker.required_names(1)
    assert checker.problems("rep 3: digest mismatch", names)
    nan = _summary(names).replace("1.5", "NaN", 1)
    assert any("strict JSON" in p for p in checker.problems(nan, names))
    assert checker.problems(_summary(names, correct=False), names)
    assert checker.problems(_summary(names, failed=2), names)
    assert checker.problems(_summary(names[1:]), names) == [
        f"metric {names[0]} is missing or has no numeric value"
    ]
