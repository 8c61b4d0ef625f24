"""Parameter grids and the sweep dispatch body.

A :class:`ParameterGrid` is an ordered dict of ``name -> values``; its
points enumerate the cartesian product in row-major order (first key
slowest), which keeps experiment tables stable across runs.

:func:`run_sweep` is the one place sweep tasks are dispatched:
:func:`repro.plan.execute` cuts a plan into ``(point, seeds, trials)``
tasks and hands them here, for either result sink.  It is
:func:`~repro.parallel.pool.map_parallel`, run under
:func:`~repro.parallel.shared.graph_context` when every task shares one
pinned topology, so the CSR arrays are installed once per worker
instead of being pickled into each task.
"""

from __future__ import annotations

import itertools
from typing import Callable, Sequence

from .pool import map_parallel
from .shared import graph_context

__all__ = ["ParameterGrid", "run_sweep"]


class ParameterGrid:
    """An ordered cartesian product of named parameter values."""

    def __init__(self, **axes: Sequence):
        if not axes:
            raise ValueError("a sweep needs at least one axis")
        for name, vals in axes.items():
            if len(vals) == 0:
                raise ValueError(f"axis {name!r} has no values")
        self.axes: dict[str, list] = {k: list(v) for k, v in axes.items()}

    def points(self) -> list[dict]:
        """All grid points as dicts, row-major (first axis slowest)."""
        names = list(self.axes)
        out = []
        for combo in itertools.product(*(self.axes[n] for n in names)):
            out.append(dict(zip(names, combo)))
        return out

    def __len__(self) -> int:
        n = 1
        for vals in self.axes.values():
            n *= len(vals)
        return n

    def __iter__(self):
        return iter(self.points())


def run_sweep(
    worker: Callable,
    tasks: Sequence,
    *,
    processes: int,
    graph=None,
    policy=None,
    on_result: Callable[[int, object], None] | None = None,
) -> list:
    """``[worker(task) for task in tasks]`` on ``processes`` processes.

    With ``graph`` (a :class:`~repro.graphs.bipartite.BipartiteGraph`
    or pre-shared :class:`~repro.parallel.shared.SharedGraph` for every
    task) the topology is installed once per worker process — fork page
    inheritance or a shared-memory mapping — and the worker reads it
    with :func:`~repro.parallel.shared.current_task_graph`.  ``policy``
    and ``on_result`` pass through to
    :func:`~repro.parallel.pool.map_parallel`: the default policy
    raises on a worker exception; the spool sink passes a quarantining
    one and persists each result as it lands.
    """
    if graph is None:
        return map_parallel(
            worker, tasks, processes=processes, policy=policy, on_result=on_result
        )
    with graph_context(graph, processes=processes) as (_view, initializer, initargs):
        return map_parallel(
            worker,
            tasks,
            processes=processes,
            initializer=initializer,
            initargs=initargs,
            policy=policy,
            on_result=on_result,
        )
