"""Execution plans: one dispatch pipeline for every run axis.

Why
---
Every experiment in this library is the same shape of computation — a
grid of parameter points × independent Monte-Carlo trials — evaluated
under a few orthogonal axes:

* **backend** — the per-trial reference engine vs the trial-vectorized
  batched engine (plus its compiled round-kernel gate);
* **graph provisioning** — generate the topology worker-side, route
  builds through the on-disk graph cache, or pin one pre-built
  topology and ship it zero-copy
  (:class:`~repro.parallel.shared.SharedGraph` / fork inheritance);
* **dispatch** — in-process or a process pool, with persistent
  per-worker state (:func:`repro.parallel.pool.worker_state`);
* **sink** — results assembled in memory, or streamed to the durable
  on-disk spool (:mod:`repro.durable`).

A :class:`RunPlan` declares all axes once; :func:`execute` owns
resolution and dispatch.

How
---
A plan is data: ``RunPlan(grid, work, trials, seeds, backend, graph,
execution, results)`` where each field is a small frozen spec.  The
``work`` field carries the experiment's science as two canonical
callables:

* ``record(graph, point, seed)   -> dict`` — one trial;
* ``batch(graph, point, seeds)   -> list[dict] | ResultBlock`` — one
  point's whole trial block (optional; required by the batched
  backend; may accept ``kernel=`` and ``threads=``).

:func:`execute` spawns the task seeds once (one
:class:`~repro.rng.SeedBlock`, with no per-seed object), cuts the grid
into ``(point, seeds, trials)`` tasks carrying slices of it once,
resolves the process count once from those tasks, and maps one of the
two picklable workers (:class:`PerTrialWorker`, :class:`BatchWorker`)
over them through :func:`repro.parallel.sweep.run_sweep`.  Every task
returns a :class:`~repro.batch.results.ResultBlock`; the blocks go
either to memory (:func:`~repro.parallel.aggregate.assemble_blocks`)
or to the spool (one block file plus one journal line per grid point,
read back by :meth:`~repro.durable.SpoolReader.table`).  Either way the
caller gets a :class:`~repro.parallel.aggregate.ResultTable`.

A task is one grid point, except that the reference backend on the
memory sink sends one task per trial, so a pool can spread the trials
of a one-point grid.  The spool keeps one task per point because its
journal is keyed by point.

Seed discipline
---------------
``SeedSpec(mode="pair")`` (default) reproduces the library's spawning
contract exactly: every (point, trial) task seed is spawned in
point-major order, and the worker splits it into a ``(graph seed,
protocol seed)`` pair — so a given (point, trial) sees bit-identical
randomness under every backend × graph × dispatch × sink
combination.  ``mode="direct"`` hands the task seed straight to the
work function (no pair spawn); it requires a pinned graph, since
there is then no graph seed to build from.
"""

from __future__ import annotations

import inspect
import os
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Mapping, Sequence

from .batch.kernels import KERNEL_NAMES
from .batch.results import ResultBlock
from .errors import PlanError, ResumeMismatchError
from .graphs.families import build_point_graph
from .parallel.aggregate import ResultTable, assemble_blocks
from .parallel.shared import current_task_graph
from .parallel.sweep import ParameterGrid, run_sweep
from .rng import SeedBlock, child_seed, spawn_seeds

__all__ = [
    "BackendSpec",
    "GraphSpec",
    "SeedSpec",
    "ExecSpec",
    "ResultSpec",
    "WorkSpec",
    "RunPlan",
    "PerTrialWorker",
    "BatchWorker",
    "execute",
]

_BACKENDS = ("reference", "batched")
_SEED_MODES = ("pair", "direct")


@dataclass(frozen=True)
class BackendSpec:
    """Which engine runs a trial.

    ``name`` selects the per-trial ``"reference"`` engine or the
    trial-vectorized ``"batched"`` engine; ``kernel`` optionally pins
    the batched engine's round-kernel implementation (``numpy`` or
    ``cext``; ``None`` defers to the ``REPRO_KERNELS`` environment
    gate).  ``threads`` is the ``cext``
    kernel's trial-partitioned thread budget (``None`` defers to
    ``REPRO_KERNEL_THREADS``; results are bit-identical at every
    thread count).  Both travel inside the pickled worker, so they
    reach pool processes without environment plumbing — and because
    pool workers reset the environment half of the thread gate to 1,
    ``threads`` is *the* way to thread kernels under pooled dispatch
    (:func:`execute` additionally caps it so threads × processes never
    exceeds the machine's cores).
    """

    name: str = "reference"
    kernel: str | None = None
    threads: int | None = None

    def validate(self) -> None:
        if self.name not in _BACKENDS:
            raise PlanError(
                f"unknown backend {self.name!r}; known: {', '.join(_BACKENDS)}"
            )
        if self.kernel is not None:
            if self.kernel not in KERNEL_NAMES:
                raise PlanError(
                    f"unknown kernel {self.kernel!r}; known: {', '.join(KERNEL_NAMES)}"
                )
            if self.name != "batched":
                raise PlanError(
                    "kernel= only applies to the batched backend "
                    f"(got backend={self.name!r})"
                )
        if self.threads is not None:
            if not isinstance(self.threads, int) or self.threads < 1:
                raise PlanError(
                    f"backend threads must be a positive int; got {self.threads!r}"
                )
            if self.name != "batched":
                raise PlanError(
                    "threads= only applies to the batched backend "
                    f"(got backend={self.name!r})"
                )


@dataclass(frozen=True)
class GraphSpec:
    """Where each task's topology comes from.

    * ``graph`` set — one pre-built topology (a
      :class:`~repro.graphs.bipartite.BipartiteGraph` or pre-shared
      :class:`~repro.parallel.shared.SharedGraph`) for *every* task,
      installed once per worker zero-copy;
    * ``cache_dir`` set — the worker builds the graph from the task's
      spawned graph seed (:func:`repro.graphs.families.build_point_graph`)
      through the on-disk graph cache in ``cache_dir``;
    * neither (default) — the same build, without the cache.
    """

    cache_dir: str | None = None
    graph: object | None = None

    def validate(self) -> None:
        if self.graph is not None and self.cache_dir:
            raise PlanError("a pinned graph is never rebuilt, so it takes no cache_dir")


@dataclass(frozen=True)
class SeedSpec:
    """How per-task randomness is derived.

    ``root`` is spawned into one child per (point, trial) task in
    point-major order (the library-wide contract).  ``seeds`` instead
    supplies the task seeds explicitly (length = points × trials).
    ``mode="pair"`` (default) makes the worker split each task seed
    into a ``(graph, protocol)`` pair; ``mode="direct"`` hands it to
    the work function unsplit (requires a pinned graph).
    """

    root: object = None
    mode: str = "pair"
    seeds: tuple | None = None

    def validate(self) -> None:
        if self.mode not in _SEED_MODES:
            raise PlanError(
                f"unknown seed mode {self.mode!r}; known: {', '.join(_SEED_MODES)}"
            )
        if self.seeds is not None and self.root is not None:
            raise PlanError("pass either a root seed or explicit seeds, not both")


@dataclass(frozen=True)
class ExecSpec:
    """How tasks are dispatched.

    ``processes`` sizes the pool (``None`` = all-but-two cores; ``1``
    runs in-process, with exact tracebacks and no pickling).
    :func:`execute` never starts more processes than there are tasks
    to run, except that a spool run given ``processes >= 2`` keeps a
    supervised pool of two for a single task.  Pool workers are
    persistent for the whole map, so batched workers keep their
    :func:`~repro.parallel.pool.worker_state` engine buffers alive
    across grid points.

    ``retries`` and ``task_timeout`` shape the spool sink's
    :class:`~repro.durable.supervisor.RetryPolicy`: a grid point whose
    worker keeps dying, raising or overstaying the timeout is
    quarantined as a structured failure row after ``retries`` attempts
    instead of killing the sweep.  The memory sink raises on the first
    worker exception.
    """

    processes: int | None = None
    retries: int = 3
    task_timeout: float | None = None

    def validate(self) -> None:
        if self.processes is not None and (
            not isinstance(self.processes, int) or self.processes < 1
        ):
            raise PlanError(
                f"processes must be a positive int or None; got {self.processes!r}"
            )
        if not isinstance(self.retries, int) or self.retries < 1:
            raise PlanError(f"retries must be a positive int; got {self.retries!r}")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise PlanError(
                f"task_timeout must be positive; got {self.task_timeout!r}"
            )
        _warn_oversubscribed(self.processes)


_OVERSUB_WARNED = False


def _warn_oversubscribed(processes: int | None) -> None:
    """Warn (once per process) when a plan asks for more workers than cores.

    Oversubscription is legal — tests on small boxes rely on it — but
    on production sweeps it usually means a copy-pasted process count,
    so the first offending plan gets a heads-up.
    """
    from .parallel.pool import available_cpus

    global _OVERSUB_WARNED
    cores = available_cpus()
    if _OVERSUB_WARNED or processes is None or processes <= cores:
        return
    _OVERSUB_WARNED = True
    warnings.warn(
        f"ExecSpec.processes={processes} exceeds available cpus={cores}; "
        "workers will time-slice cores (this warning is shown once)",
        stacklevel=3,
    )


@dataclass(frozen=True)
class ResultSpec:
    """Where the results live: memory (default) or the durable spool.

    With ``dir`` set, every grid point's block streams to ``dir`` as an
    atomic checksummed file with a JSONL journal — the durable path
    (:mod:`repro.durable`): the sweep survives worker crashes, can be
    resumed bit-identically after a SIGKILL (``execute(plan,
    resume=dir)``), and the full result set never has to fit in RAM
    (:class:`~repro.durable.SpoolReader` iterates blocks lazily).
    """

    dir: str | None = None


@dataclass(frozen=True)
class WorkSpec:
    """The experiment's science, in the two canonical callable shapes.

    ``record(graph, point, seed) -> dict`` runs one trial on a resolved
    topology; ``batch(graph, point, seeds) -> list[dict] | ResultBlock``
    runs a point's whole trial block at once (the batched backend's
    entry; optional).  A ``batch`` callable may accept a ``kernel=``
    keyword to receive :attr:`BackendSpec.kernel`.  Both must be
    picklable (module-level functions).
    """

    record: Callable
    batch: Callable | None = None
    name: str = ""

    def validate(self) -> None:
        if not callable(self.record):
            raise PlanError("work.record must be callable")
        if self.batch is not None and not callable(self.batch):
            raise PlanError("work.batch must be callable when given")


@dataclass(frozen=True)
class RunPlan:
    """A declarative description of one grid × trials evaluation.

    ``grid`` is a :class:`~repro.parallel.sweep.ParameterGrid` or an
    explicit sequence of point dicts (for non-cartesian designs).
    Execute with :func:`execute`; derive variants with
    :meth:`override` (specs are frozen — plans are values).
    """

    grid: object
    work: WorkSpec
    trials: int = 1
    seeds: SeedSpec = field(default_factory=SeedSpec)
    backend: BackendSpec = field(default_factory=BackendSpec)
    graph: GraphSpec = field(default_factory=GraphSpec)
    execution: ExecSpec = field(default_factory=ExecSpec)
    results: ResultSpec = field(default_factory=ResultSpec)

    # -- derived views ---------------------------------------------------

    def points(self) -> list[dict]:
        """The grid's points as dicts (explicit point lists pass through)."""
        if hasattr(self.grid, "points"):
            return self.grid.points()
        return [dict(p) for p in self.grid]

    def n_tasks(self) -> int:
        return len(self.points()) * self.trials

    def override(self, **changes) -> "RunPlan":
        """A copy of this plan with dataclass fields replaced."""
        return replace(self, **changes)

    def describe(self) -> dict:
        """A flat, log-friendly summary of every axis."""
        if self.graph.graph is not None:
            graph = "pinned"
        else:
            graph = "cached" if self.graph.cache_dir else "generate"
        return {
            "work": self.work.name or getattr(self.work.record, "__name__", "?"),
            "points": len(self.points()),
            "trials": self.trials,
            "backend": self.backend.name,
            "seed_mode": self.seeds.mode,
            "kernel": self.backend.kernel,
            "threads": self.backend.threads,
            "graph": graph,
            "processes": self.execution.processes,
            "spool": self.results.dir,
        }

    # -- validation ------------------------------------------------------

    def validate(self) -> None:
        """Check every axis and their cross-axis consistency."""
        if not isinstance(self.grid, ParameterGrid):
            if isinstance(self.grid, (str, bytes)) or not isinstance(
                self.grid, Sequence
            ):
                raise PlanError(
                    "grid must be a ParameterGrid or a sequence of point dicts"
                )
            for p in self.grid:
                if not isinstance(p, Mapping):
                    raise PlanError(f"explicit grid points must be dicts; got {p!r}")
        if not isinstance(self.trials, int) or self.trials < 0:
            raise PlanError(f"trials must be a non-negative int; got {self.trials!r}")
        self.work.validate()
        self.seeds.validate()
        self.backend.validate()
        self.graph.validate()
        self.execution.validate()
        if self.backend.name == "batched" and self.work.batch is None:
            raise PlanError(
                "backend 'batched' needs work.batch (a block-of-trials callable)"
            )
        for kw, value in (("kernel", self.backend.kernel), ("threads", self.backend.threads)):
            if (
                value is not None
                and self.work.batch is not None
                and not _accepts_kw(self.work.batch, kw)
            ):
                # Fail here rather than as a TypeError inside a pool worker.
                raise PlanError(
                    f"backend.{kw}={value!r} is set but work.batch "
                    f"({getattr(self.work.batch, '__name__', self.work.batch)!r}) "
                    f"does not accept a {kw}= keyword"
                )
        if self.seeds.mode == "direct" and self.graph.graph is None:
            raise PlanError(
                "seed mode 'direct' needs a pinned graph (there is no graph "
                "seed to build one from)"
            )
        if self.seeds.seeds is not None and len(self.seeds.seeds) != self.n_tasks():
            raise PlanError(
                f"explicit seeds: got {len(self.seeds.seeds)} for "
                f"{self.n_tasks()} (point, trial) tasks"
            )
        if self.results.dir:
            from .durable.journal import seed_token

            if seed_token(self.seeds) is None:
                raise PlanError(
                    "the spool needs a reproducible seed lineage "
                    "(an int root or entropy-bearing SeedSequence); OS-entropy "
                    "seeds cannot resume bit-identically"
                )


def _accepts_kw(fn: Callable, name: str) -> bool:
    """Whether ``fn`` can receive the ``name=`` keyword."""
    try:
        params = inspect.signature(fn).parameters
    except (TypeError, ValueError):  # builtins/extensions: assume yes
        return True
    return name in params or any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()
    )


# ---------------------------------------------------------------------------
# The two canonical workers: one (point, seeds, trials) task → one block.
# ---------------------------------------------------------------------------


class PerTrialWorker:
    """Canonical per-trial execution path: resolve graph, run ``record``.

    Loops over the task's trials in order.  Under ``pair_seeds`` each
    task seed gives a ``(graph, protocol)`` pair, its children 0 and 1
    (:func:`~repro.rng.child_seed`; what ``seed.spawn(2)`` gives on a
    fresh seed, without spawning), and the trial builds its own graph
    from the graph half; a pinned topology consumes only the protocol
    half, so a (point, trial)'s protocol stream is identical across
    graph sources — the statistical difference is only what the
    estimate conditions on.
    """

    def __init__(
        self,
        record: Callable,
        *,
        pinned: bool = False,
        pair_seeds: bool = True,
        cache_dir: str | None = None,
    ):
        self.record = record
        self.pinned = pinned
        self.pair_seeds = pair_seeds
        self.cache_dir = cache_dir

    def __call__(self, task) -> ResultBlock:
        point, seeds, trials = task
        graph = current_task_graph() if self.pinned else None
        records = []
        for seed in seeds:
            if not self.pinned:
                graph = build_point_graph(point, child_seed(seed, 0), self.cache_dir)
            p_seed = child_seed(seed, 1) if self.pair_seeds else seed
            records.append(self.record(graph, point, p_seed))
        return ResultBlock.from_records(point, trials, records)


class BatchWorker:
    """Canonical batched execution path: a point's trial block at once.

    Derives the same per-trial ``(graph, protocol)`` seed pairs as
    :class:`PerTrialWorker`, builds one graph per point (from the first
    trial's graph seed) unless pinned, and hands the protocol seeds to
    ``batch`` — so trial ``r`` of a point consumes a protocol stream
    bit-identical to the reference path's; the batched backend
    conditions a point's trials on a single graph draw.  Records the
    batch function returns are packed into one block worker-side.
    """

    def __init__(
        self,
        batch: Callable,
        *,
        pinned: bool = False,
        pair_seeds: bool = True,
        cache_dir: str | None = None,
        kernel: str | None = None,
        threads: int | None = None,
    ):
        self.batch = batch
        self.pinned = pinned
        self.pair_seeds = pair_seeds
        self.cache_dir = cache_dir
        # kernel and threads travel in the pickled worker: an explicit
        # plan-level thread budget reaches pool processes even though
        # their REPRO_KERNEL_THREADS environment half is reset to 1.
        self.kwargs = {
            k: v
            for k, v in (("kernel", kernel), ("threads", threads))
            if v is not None
        }

    def __call__(self, task) -> ResultBlock:
        point, seeds, trials = task
        # Of each trial's (graph, protocol) pair only the protocol child,
        # and the first trial's graph child, are read: take just those
        # (a block's protocol children stay a block, with no object each).
        if not self.pair_seeds:
            p_seeds = seeds
        elif isinstance(seeds, SeedBlock):
            p_seeds = seeds.child(1)
        else:  # explicit SeedSpec.seeds
            p_seeds = [child_seed(s, 1) for s in seeds]
        if self.pinned:
            graph = current_task_graph()
        else:
            graph = build_point_graph(point, child_seed(seeds[0], 0), self.cache_dir)
        result = self.batch(graph, point, p_seeds, **self.kwargs)
        if isinstance(result, ResultBlock):
            if result.n_trials != len(trials):
                raise ValueError(
                    f"batched work returned a block of {result.n_trials} "
                    f"trials for {len(trials)} trials"
                )
            return result
        records = list(result)
        if len(records) != len(trials):
            raise ValueError(
                f"batched work returned {len(records)} records for {len(trials)} trials"
            )
        return ResultBlock.from_records(point, trials, records)


# ---------------------------------------------------------------------------
# The single entry point.
# ---------------------------------------------------------------------------


def _cut_tasks(points, seeds, trials: int, indices, per_trial: bool) -> list[tuple]:
    """``(point, seeds, trials)`` tasks for the grid points ``indices``.

    Point ``i``'s trials own the seed slice ``[i·trials, (i+1)·trials)``
    of the point-major spawn, whatever the task granularity; a slice of
    a :class:`~repro.rng.SeedBlock` is a block.
    """
    if not trials:
        return []
    if per_trial:
        return [
            (points[i], seeds[i * trials + t : i * trials + t + 1], [t])
            for i in indices
            for t in range(trials)
        ]
    return [
        (points[i], seeds[i * trials : (i + 1) * trials], list(range(trials)))
        for i in indices
    ]


def _resolve_processes(requested: int | None, n_tasks: int) -> int:
    """The one process count of a run: never more than its tasks."""
    from .parallel.pool import default_processes

    if requested is None:
        return default_processes(n_tasks)
    return max(1, min(requested, n_tasks))


def _capped_threads(threads: int | None, nproc: int) -> int | None:
    """The plan's kernel-thread budget, capped against its process count.

    Threads multiply processes — an explicit ``BackendSpec(threads=8)``
    on an 8-core box dispatched to an 8-worker pool would run 64
    runnable threads.  The cap keeps threads × processes at or below
    the core count (in-process runs keep the full budget); the capped
    value travels inside the pickled worker.
    """
    if threads is None or threads <= 1 or nproc <= 1:
        return threads
    from .parallel.pool import available_cpus

    return max(1, min(threads, available_cpus() // nproc))


def _build_worker(plan: RunPlan, nproc: int):
    """The plan's canonical picklable worker."""
    pinned = plan.graph.graph is not None
    cache_dir = plan.graph.cache_dir or None
    pair = plan.seeds.mode != "direct"
    if plan.backend.name == "batched":
        return BatchWorker(
            plan.work.batch,
            pinned=pinned,
            pair_seeds=pair,
            cache_dir=cache_dir,
            kernel=plan.backend.kernel,
            threads=_capped_threads(plan.backend.threads, nproc),
        )
    return PerTrialWorker(plan.work.record, pinned=pinned, pair_seeds=pair, cache_dir=cache_dir)


def execute(plan: RunPlan, *, resume: str | os.PathLike | None = None) -> ResultTable:
    """Run a validated :class:`RunPlan`; the one dispatch pipeline.

    Owns backend resolution (reference/batched + kernel gate), graph
    provisioning (generate / cached / pinned zero-copy), dispatch
    (in-process or a pool of persistent workers), and the sink.  It
    returns a :class:`~repro.parallel.aggregate.ResultTable` with one
    row per (point, trial): the point's parameters, the trial index,
    and the record fields.  Record content is identical across every
    axis combination; seeds follow the (point, trial) spawning
    contract, so switching any axis never changes a trial's randomness.

    ``ResultSpec(dir=...)`` routes the blocks to the durable spool
    (:mod:`repro.durable`): one checksummed block file and one journal
    line per grid point, dispatched under a crash supervisor that
    quarantines a failing point instead of raising.  ``resume=dir``
    replays the journal of an interrupted run — completed points load
    from their checksummed blocks, missing ones re-run with their
    original seeds, and the assembled table is bit-identical to a run
    that was never interrupted (a plan whose fingerprint disagrees with
    the journal raises :class:`~repro.errors.ResumeMismatchError`
    instead).  ``resume=`` on a plan without a spool adopts ``dir`` as
    the spool, so ``execute(plan, resume=d)`` alone round-trips.
    """
    if resume is not None:
        spool = plan.results.dir
        if spool and Path(spool).resolve() != Path(resume).resolve():
            raise PlanError(f"resume={str(resume)!r} contradicts results.dir={spool!r}")
        plan = plan.override(results=ResultSpec(dir=str(resume)))
    plan.validate()
    points = plan.points()
    trials = plan.trials
    spool = Path(plan.results.dir) if plan.results.dir else None
    fingerprint, done = _open_spool(plan, spool) if spool else (None, {})
    pending = [i for i in range(len(points)) if i not in done]
    if plan.seeds.seeds is not None:
        seeds = list(plan.seeds.seeds)
    else:
        seeds = spawn_seeds(plan.seeds.root, len(points) * trials)
    per_trial = spool is None and plan.backend.name == "reference"
    tasks = _cut_tasks(points, seeds, trials, pending, per_trial)
    nproc = _resolve_processes(plan.execution.processes, len(tasks))
    worker = _build_worker(plan, nproc)
    if spool is None:
        return assemble_blocks(
            run_sweep(worker, tasks, processes=nproc, graph=plan.graph.graph)
        )
    return _spool_sink(plan, spool, fingerprint, points, pending, tasks, worker, nproc)


def _open_spool(plan: RunPlan, root: Path) -> tuple[str, dict[int, dict]]:
    """The plan's fingerprint and the verified completed points in ``root``.

    A spool without a journal is fresh (nothing done).  An existing
    journal must carry this plan's fingerprint; its completed points
    count only if their block files still match their checksums, so
    torn or missing blocks re-run.
    """
    from .durable.journal import JOURNAL_NAME, plan_fingerprint
    from .durable.spool import SpoolReader

    fingerprint = plan_fingerprint(plan)
    root.mkdir(parents=True, exist_ok=True)
    if not (root / JOURNAL_NAME).exists():
        return fingerprint, {}
    reader = SpoolReader(root)
    found = reader.header.get("fingerprint")
    if found != fingerprint:
        raise ResumeMismatchError(
            f"{root / JOURNAL_NAME}: journal belongs to a different plan "
            f"(fingerprint {str(found)[:12]}…, this plan {fingerprint[:12]}…)"
        )
    return fingerprint, reader.verified_completed()


def _spool_sink(plan, root, fingerprint, points, pending, tasks, worker, nproc):
    """Write each point's block and journal line as it lands, then read back.

    Tasks are one per pending point, so task ``pos`` is grid point
    ``pending[pos]``.  A point whose worker keeps failing is journaled
    as a failure after ``ExecSpec.retries`` attempts; one the supervisor
    lost terminally stays pending for the next resume.

    A plan that asked for a pool keeps one even with a single task to
    run: only a task in a worker process can be timed out, or crash
    without taking the run down with it.
    """
    from .durable.journal import JOURNAL_NAME, JournalWriter
    from .durable.spool import SpoolReader, write_block
    from .durable.supervisor import RetryPolicy, TaskFailure

    if (plan.execution.processes or 1) > 1:
        nproc = max(nproc, 2)

    journal = root / JOURNAL_NAME
    fresh = not journal.exists()
    writer = JournalWriter(journal)
    try:
        if fresh:
            writer.write_header(
                fingerprint=fingerprint,
                work=plan.work.name or getattr(plan.work.record, "__name__", "?"),
                points=len(points),
                trials=plan.trials,
                backend=plan.backend.name,
                processes=nproc,
            )

        def persist(pos: int, result) -> None:
            i = pending[pos]
            if result is None:
                return  # the supervisor lost the task terminally; leave it pending
            if isinstance(result, TaskFailure):
                writer.failure(
                    i,
                    point_params=points[i],
                    failure_kind=result.kind,
                    error=result.error,
                    exc_type=result.exc_type,
                    attempts=result.attempts,
                )
                return
            rel, sha = write_block(root, i, result)
            writer.block(
                i, file=rel, sha256=sha, rows=result.n_trials, point_params=points[i]
            )

        policy = RetryPolicy(
            max_attempts=plan.execution.retries,
            task_timeout=plan.execution.task_timeout,
            retry_exceptions=True,
            on_failure="return",
        )
        run_sweep(
            worker, tasks, processes=nproc, graph=plan.graph.graph,
            policy=policy, on_result=persist,
        )
    finally:
        writer.close()
    return SpoolReader(root).table()
