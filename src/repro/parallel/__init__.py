"""Trial-level parallelism and parameter sweeps.

The protocols themselves are simulated (the GIL makes thread-level
parallelism useless for this workload), so the library scales along two
composable axes — the **two-level parallelism model**:

1. **Across processes**: independent Monte-Carlo trials and sweep
   points run on ``ProcessPoolExecutor`` workers, each with a
   ``SeedSequence.spawn``-ed private stream (never share or reuse
   streams across processes).
2. **Within a process**: on the batched backend a worker receives a
   whole block of trials and executes it through the trial-vectorized
   engine of :mod:`repro.batch` as single 2-D numpy operations instead
   of a per-trial python loop.

:func:`repro.plan.execute` cuts a plan into tasks and hands them to
:func:`run_sweep`, the one dispatch body (:func:`map_parallel`, under a
zero-copy :func:`graph_context` when a topology is pinned: fork page
inheritance or a :class:`~repro.parallel.shared.SharedGraph`
shared-memory mapping instead of pickling the graph into every task).
Workers return :class:`~repro.batch.results.ResultBlock` s, which
:func:`assemble_blocks` stacks into one :class:`ResultTable`.
"""

from .aggregate import ResultTable, aggregate_records, assemble_blocks, summarize
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
    "assemble_blocks",
    "ResultTable",
    "SharedGraph",
    "current_task_graph",
    "graph_context",
    "worker_state",
    "WorkerState",
]
