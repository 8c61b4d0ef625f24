"""Process-pool execution of independent trials.

Workers receive a private :class:`numpy.random.SeedSequence`, spawned
from one root seed, so results are reproducible regardless of how many
processes run the trials or in what order they complete — results are
always returned in submission order.

``processes=None`` picks a sensible default (all-but-two cores, capped
by the task count); ``processes<=1`` runs serially in-process, which is
what tests use and what debugging wants (no pickling, real tracebacks).

Two-level parallelism
---------------------
The library scales Monte-Carlo work along two orthogonal axes:

1. **Across processes** (this module): independent tasks — trials or
   whole trial blocks — are farmed to ``ProcessPoolExecutor`` workers.
   This is the only way to use more cores (the protocols are simulated
   in numpy; the GIL rules out threads).
2. **Within a process** (:mod:`repro.batch`): ``backend="batched"``
   hands a worker a whole *block* of trials at once, which the
   trial-vectorized engine executes as single 2-D numpy operations —
   typically 4-8× the per-trial throughput of calling
   :func:`repro.core.engine.run_protocol` in a loop.

The two compose: :func:`repro.plan.execute` on the batched backend
sends one trial block per grid point to the pool (processes across
points, batched trials within).  Per-trial seeds are spawned
identically under either backend, so switching backends never changes
which seed a trial gets.

Persistent workers
------------------
Pool workers live for the whole map, so per-process scratch survives
from task to task.  :func:`worker_state` exposes that as an explicit
cache: batched engine workers fetch
``worker_state().engine_buffers`` and hand it to
:func:`repro.batch.run_trials_batched`, which then reuses one set of
staging arrays, the received slab, and the RNG read-ahead slab across
every grid point the process executes instead of reallocating per
task.  (Serial runs get the same object in the parent — reuse is free
there too.)

Kernel threads under pooled dispatch
------------------------------------
The compiled round kernels have their own thread axis
(``REPRO_KERNEL_THREADS`` / ``threads=``; see
:mod:`repro.batch.kernels`).  Threads *multiply* processes, so a pool
worker inheriting an environment-wide thread budget would oversubscribe
the machine (processes × threads runnable threads).  Every pool spawned
here therefore resets ``REPRO_KERNEL_THREADS`` to 1 inside its workers:
the environment gate parallelizes serial runs, while pooled runs thread
their kernels only through an explicit budget that travels in the task
callable (e.g. ``BackendSpec.threads``, which :func:`repro.plan.execute`
caps so threads × processes stays within the core count).
"""

from __future__ import annotations

import os
from typing import Callable, Sequence, TypeVar

from ..durable.supervisor import RetryPolicy, supervised_map

__all__ = [
    "map_parallel", "available_cpus", "default_processes",
    "worker_state", "WorkerState",
]


def available_cpus() -> int:
    """Cores this process may actually run on, at least 1.

    ``os.cpu_count()`` reports the machine; a container pinned to 2 of
    64 cores (cgroup cpusets, taskset, SLURM) still sees 64 from it and
    every sizing heuristic oversubscribes 32×.  The scheduler affinity
    mask is the real budget — fall back to ``cpu_count`` only where the
    call does not exist (macOS, Windows).
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1

T = TypeVar("T")
R = TypeVar("R")


class WorkerState:
    """Per-process scratch kept alive across pool tasks.

    Today this carries the batched engine's
    :class:`~repro.batch.kernels.EngineBuffers`; anything else a worker
    wants to keep warm across tasks belongs here too.
    """

    def __init__(self) -> None:
        self._engine_buffers = None

    @property
    def engine_buffers(self):
        if self._engine_buffers is None:
            from ..batch.kernels import EngineBuffers

            self._engine_buffers = EngineBuffers()
        return self._engine_buffers


_WORKER_STATE: WorkerState | None = None


def worker_state() -> WorkerState:
    """This process's persistent :class:`WorkerState` (created lazily)."""
    global _WORKER_STATE
    if _WORKER_STATE is None:
        _WORKER_STATE = WorkerState()
    return _WORKER_STATE


def default_processes(n_tasks: int) -> int:
    """All-but-two cores, at least 1, never more than the task count."""
    cores = available_cpus()
    return max(1, min(n_tasks, cores - 2 if cores > 2 else 1))


def _pool_worker_init(initializer: Callable | None, initargs: tuple) -> None:
    """Initializer run in every pool worker before its first task.

    Defaults the kernel thread gate to 1 (processes are the outer
    parallel axis here; an inherited ``REPRO_KERNEL_THREADS`` would
    multiply into processes × threads oversubscription — an explicit
    ``threads=`` argument travelling in the task callable still wins),
    then chains the caller's own initializer (e.g. the zero-copy graph
    installer).
    """
    from ..batch.kernels import THREADS_ENV

    os.environ[THREADS_ENV] = "1"
    if initializer is not None:
        initializer(*initargs)


def map_parallel(
    fn: Callable[[T], R],
    items: Sequence[T],
    *,
    processes: int | None = None,
    initializer: Callable | None = None,
    initargs: tuple = (),
    policy: "RetryPolicy | None" = None,
    on_result: Callable[[int, object], None] | None = None,
) -> list[R]:
    """``[fn(x) for x in items]`` across processes, order-preserving.

    ``fn`` and the items must be picklable (define workers at module
    top level).  With ``processes<=1`` this is a plain list
    comprehension — zero overhead, exact tracebacks (``initializer`` is
    not invoked; serial callers already run in the parent, where any
    task context is installed directly).

    Pooled dispatch runs under the crash supervisor
    (:func:`repro.durable.supervisor.supervised_map`) rather than bare
    ``pool.map``: a worker killed mid-task (OOM, SIGKILL) no longer
    aborts the whole map — the pool is rebuilt and the lost tasks
    retried with capped deterministic backoff, up to ``policy``'s
    attempt budget (default: 3 attempts, then raise
    :class:`~repro.errors.WorkerCrashError`).  Ordinary exceptions
    raised *by ``fn``* still propagate immediately under the default
    policy, exactly as before.  Pass a custom
    :class:`~repro.durable.supervisor.RetryPolicy` for per-task
    timeouts, exception retries, or quarantine-instead-of-raise
    (``on_failure="return"``), and ``on_result`` to observe each task's
    outcome in completion order — the hook the durable result spool
    persists blocks through.  The supervisor dispatches one task per
    future, which is what gives it per-task crash/timeout granularity.
    """
    items = list(items)
    if not items:
        return []
    nproc = default_processes(len(items)) if processes is None else processes
    if nproc <= 1:
        if policy is None and on_result is None:
            return [fn(x) for x in items]
        return supervised_map(fn, items, processes=1, policy=policy, on_result=on_result)
    return supervised_map(
        fn,
        items,
        processes=nproc,
        initializer=_pool_worker_init,
        initargs=(initializer, initargs),
        policy=policy,
        on_result=on_result,
    )
