"""Trial-level parallelism and parameter sweeps.

The protocols themselves are simulated (the GIL makes thread-level
parallelism useless for this workload), so the library scales along two
composable axes — the **two-level parallelism model**:

1. **Across processes**: independent Monte-Carlo trials and sweep
   points run on ``ProcessPoolExecutor`` workers, each with a
   ``SeedSequence.spawn``-ed private stream (never share or reuse
   streams across processes).
2. **Within a process**: with ``backend="batched"``, a worker receives
   a whole block of trials and executes it through the trial-vectorized
   engine of :mod:`repro.batch` as single 2-D numpy operations instead
   of a per-trial python loop.

:func:`run_sweep` is the trial-dispatch entry: it assigns one block
per grid point (processes across grid points, vectorized trials within
each); a Monte-Carlo estimate at one setting is a one-point grid.
Per-trial seeds are spawned identically under both backends, so the
backend choice never changes which seed a trial sees.

A third lever removes the *topology* from the task payload: with
``graph=`` :func:`run_sweep` installs the CSR arrays once per worker —
fork page inheritance or a :class:`~repro.parallel.shared.SharedGraph`
shared-memory mapping — instead of pickling the graph into every task
(see :mod:`repro.parallel.shared`).
"""

from .aggregate import ResultTable, aggregate_records, as_table, assemble_blocks, summarize
from .pool import WorkerState, available_cpus, map_parallel, worker_state
from .shared import SharedGraph, current_task_graph, graph_context
from .sweep import ParameterGrid, run_sweep

__all__ = [
    "available_cpus",
    "map_parallel",
    "ParameterGrid",
    "run_sweep",
    "summarize",
    "aggregate_records",
    "as_table",
    "assemble_blocks",
    "ResultTable",
    "SharedGraph",
    "current_task_graph",
    "graph_context",
    "worker_state",
    "WorkerState",
]
