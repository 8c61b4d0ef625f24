"""Unified execution plans: one dispatch pipeline for every run axis.

Why
---
Every experiment in this library is the same shape of computation — a
grid of parameter points × independent Monte-Carlo trials — evaluated
under four orthogonal execution axes that grew one PR at a time:

* **backend** — the per-trial reference engine vs the trial-vectorized
  batched engine (plus its compiled round-kernel gate);
* **graph provisioning** — generate the topology worker-side, route
  builds through the on-disk graph cache, or pin one pre-built
  topology and ship it zero-copy
  (:class:`~repro.parallel.shared.SharedGraph` / fork inheritance);
* **dispatch** — serial in-process, a process pool, with persistent
  per-worker state (:func:`repro.parallel.pool.worker_state`);
* **results** — legacy per-trial record dicts vs the columnar
  :class:`~repro.batch.results.ResultBlock` spool assembled into a
  :class:`~repro.parallel.aggregate.ResultTable`.

Before this module each axis was plumbed through ad-hoc kwargs at every
layer (runner signatures, near-duplicate worker adapters, CLI signature
probing).  A :class:`RunPlan` declares all axes once; :func:`execute`
owns resolution and dispatch.  Adding a new backend, graph source,
executor, or spool format is a change *here*, not a five-file sweep.

How
---
A plan is data: ``RunPlan(grid, work, trials, seeds, backend, graph,
execution, results)`` where each field is a small frozen spec.  The
``work`` field carries the experiment's science as two canonical
callables:

* ``record(graph, point, seed)   -> dict`` — one trial;
* ``batch(graph, point, seeds)   -> list[dict] | ResultBlock`` — one
  point's whole trial block (optional; required by the batched
  backend; may accept ``kernel=`` for the compiled-kernel gate).

:func:`execute` wraps them in the **two** canonical picklable workers
(:class:`PerTrialWorker`, :class:`BatchWorker`) — these replace the
per-experiment adapter variants that previously lived in
``experiments/runners.py`` — and dispatches through
:func:`repro.parallel.sweep.run_sweep`, which owns seed spawning, the
pool, zero-copy graph installation, and columnar assembly.

Seed discipline
---------------
``SeedSpec(mode="pair")`` (default) reproduces the library's spawning
contract exactly: every (point, trial) task seed is spawned in
point-major order, and the worker splits it into a ``(graph seed,
protocol seed)`` pair — so a given (point, trial) sees bit-identical
randomness under every backend × graph × dispatch × results
combination.  ``mode="direct"`` hands the task seed straight to the
record function (no pair spawn); it requires a pinned graph, since
there is then no graph seed to build from.  ``mode="philox"`` keeps
the pair spawn but switches the batched engine to the counter-based
Philox lineage (:func:`repro.rng.philox_trial_words`): each trial's
protocol stream becomes a pure function of its spawned words and the
(round, slot) counter — its own golden lineage, deliberately NOT
bit-compatible with the PCG64 modes — which unlocks the fused
generate-at-consumption kernels.  It requires the batched backend (``work.batch`` must accept
``seed_mode=``).
"""

from __future__ import annotations

import inspect
import os
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Mapping, Sequence

from .batch.kernels import KERNEL_NAMES
from .errors import PlanError
from .graphs.families import build_point_graph
from .parallel.sweep import ParameterGrid, run_sweep

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
_GRAPH_MODES = ("generate", "cached", "pinned")
_SEED_MODES = ("pair", "direct", "philox")
_EXEC_MODES = ("auto", "serial", "pool")
_RESULT_MODES = ("records", "columnar")
_RESULT_SINKS = ("memory", "spool")


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

    * ``"generate"`` (default) — the worker builds the graph from the
      task's spawned graph seed via ``builder`` (default: the sweep
      family vocabulary, :func:`repro.graphs.families.build_point_graph`);
    * ``"cached"`` — same build, routed through the on-disk graph cache
      in ``cache_dir``;
    * ``"pinned"`` — one pre-built topology (a
      :class:`~repro.graphs.bipartite.BipartiteGraph` or pre-shared
      :class:`~repro.parallel.shared.SharedGraph`) for *every* task,
      installed once per worker zero-copy.
    """

    mode: str = "generate"
    cache_dir: str | None = None
    graph: object | None = None
    builder: Callable | None = None  # (point, seed, cache_dir) -> BipartiteGraph

    def validate(self) -> None:
        if self.mode not in _GRAPH_MODES:
            raise PlanError(
                f"unknown graph mode {self.mode!r}; known: {', '.join(_GRAPH_MODES)}"
            )
        if self.mode == "cached" and not self.cache_dir:
            raise PlanError("graph mode 'cached' needs cache_dir")
        if self.mode == "pinned" and self.graph is None:
            raise PlanError("graph mode 'pinned' needs a graph")
        if self.mode != "pinned" and self.graph is not None:
            raise PlanError(f"graph mode {self.mode!r} does not take a pinned graph")
        if self.mode != "cached" and self.cache_dir:
            raise PlanError(f"graph mode {self.mode!r} does not take cache_dir")


@dataclass(frozen=True)
class SeedSpec:
    """How per-task randomness is derived.

    ``root`` is spawned into one child per (point, trial) task in
    point-major order (the library-wide contract).  ``seeds`` instead
    supplies the task seeds explicitly (length = points × trials).
    ``mode="pair"`` (default) makes the worker split each task seed
    into a ``(graph, protocol)`` pair; ``mode="direct"`` hands it to
    the record function unsplit (requires a pinned graph);
    ``mode="philox"`` spawns pairs like ``"pair"`` but runs the
    batched engine under the counter-based Philox lineage (a distinct
    golden stream — see the module docstring).
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

    ``"serial"`` forces in-process execution (exact tracebacks, no
    pickling); ``"pool"``/``"auto"`` run on a process pool sized by
    ``processes`` (``None`` = all-but-two cores).  Pool workers are
    persistent for the whole map, so batched workers keep their
    :func:`~repro.parallel.pool.worker_state` engine buffers alive
    across grid points.

    ``retries`` and ``task_timeout`` shape the durable path's
    :class:`~repro.durable.supervisor.RetryPolicy` (spool-sink runs
    only): a grid point whose worker keeps dying or overstaying the
    timeout is quarantined as a structured failure row after
    ``retries`` attempts instead of killing the sweep.
    """

    mode: str = "auto"
    processes: int | None = None
    chunksize: int = 1
    retries: int = 3
    task_timeout: float | None = None

    def validate(self) -> None:
        if self.mode not in _EXEC_MODES:
            raise PlanError(
                f"unknown exec mode {self.mode!r}; known: {', '.join(_EXEC_MODES)}"
            )
        if self.mode == "serial" and self.processes not in (None, 0, 1):
            raise PlanError(
                f"exec mode 'serial' contradicts processes={self.processes}"
            )
        if self.chunksize < 1:
            raise PlanError(f"chunksize must be >= 1; got {self.chunksize}")
        if not isinstance(self.retries, int) or self.retries < 1:
            raise PlanError(f"retries must be a positive int; got {self.retries!r}")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise PlanError(
                f"task_timeout must be positive; got {self.task_timeout!r}"
            )
        _warn_oversubscribed(self.processes)

    def resolve_processes(self) -> int | None:
        return 1 if self.mode == "serial" else self.processes


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
    """The results carrier: legacy record dicts or the columnar spool.

    ``mode`` picks how rows travel and what :func:`execute` returns
    (``"records"`` → ``list[dict]``, ``"columnar"`` →
    :class:`~repro.parallel.aggregate.ResultTable`).  ``sink`` picks
    where they live: ``"memory"`` (default) assembles in RAM;
    ``"spool"`` streams every grid point's block to ``dir`` as an
    atomic checksummed file with a JSONL journal — the durable path
    (:mod:`repro.durable`): the sweep survives worker crashes, can be
    resumed bit-identically after a SIGKILL (``execute(plan,
    resume=dir)``), and the full result set never has to fit in RAM
    (:class:`~repro.durable.SpoolReader` iterates blocks lazily).
    """

    mode: str = "records"
    sink: str = "memory"
    dir: str | None = None

    def validate(self) -> None:
        if self.mode not in _RESULT_MODES:
            raise PlanError(
                f"unknown results mode {self.mode!r}; known: {', '.join(_RESULT_MODES)}"
            )
        if self.sink not in _RESULT_SINKS:
            raise PlanError(
                f"unknown results sink {self.sink!r}; known: {', '.join(_RESULT_SINKS)}"
            )
        if self.sink == "spool" and not self.dir:
            raise PlanError("results sink 'spool' needs dir")
        if self.sink != "spool" and self.dir:
            raise PlanError(f"results sink {self.sink!r} does not take dir")


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
        return {
            "work": self.work.name or getattr(self.work.record, "__name__", "?"),
            "points": len(self.points()),
            "trials": self.trials,
            "backend": self.backend.name,
            "seed_mode": self.seeds.mode,
            "kernel": self.backend.kernel,
            "threads": self.backend.threads,
            "graph": self.graph.mode,
            "exec": self.execution.mode,
            "processes": self.execution.resolve_processes(),
            "results": self.results.mode,
            "sink": self.results.sink,
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
        self.results.validate()
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
        if self.seeds.mode == "direct" and self.graph.mode != "pinned":
            raise PlanError(
                "seed mode 'direct' needs a pinned graph (there is no graph "
                "seed to build one from)"
            )
        if self.seeds.mode == "philox":
            if self.backend.name != "batched":
                raise PlanError(
                    "seed mode 'philox' needs backend 'batched' (the counter "
                    "lineage lives in the batched engine)"
                )
            if self.work.batch is not None and not _accepts_kw(
                self.work.batch, "seed_mode"
            ):
                raise PlanError(
                    "seed mode 'philox' is set but work.batch "
                    f"({getattr(self.work.batch, '__name__', self.work.batch)!r}) "
                    "does not accept a seed_mode= keyword"
                )
        if self.seeds.seeds is not None and len(self.seeds.seeds) != self.n_tasks():
            raise PlanError(
                f"explicit seeds: got {len(self.seeds.seeds)} for "
                f"{self.n_tasks()} (point, trial) tasks"
            )
        if self.results.sink == "spool":
            from .durable.journal import seed_token

            if seed_token(self.seeds) is None:
                raise PlanError(
                    "results sink 'spool' needs a reproducible seed lineage "
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
# The two canonical workers (picklable; replace per-experiment adapters).
# ---------------------------------------------------------------------------


class PerTrialWorker:
    """Canonical per-trial execution path: resolve graph, run ``record``.

    Handles every graph mode with the same seed discipline: under
    ``pair_seeds`` the task seed spawns a ``(graph, protocol)`` pair —
    pinned topologies consume only the protocol half, so a (point,
    trial)'s protocol stream is identical across graph modes; the
    statistical difference is only what the estimate conditions on.
    """

    def __init__(
        self,
        record: Callable,
        *,
        pinned: bool = False,
        pair_seeds: bool = True,
        builder: Callable | None = None,
        cache_dir: str | None = None,
    ):
        self.record = record
        self.pinned = pinned
        self.pair_seeds = pair_seeds
        self.builder = builder or build_point_graph
        self.cache_dir = cache_dir

    def __call__(self, *task) -> dict:
        if self.pinned:
            graph, point, seed_seq, _trial = task
        else:
            point, seed_seq, _trial = task
        if self.pair_seeds:
            g_seed, p_seed = seed_seq.spawn(2)
        else:
            g_seed, p_seed = None, seed_seq
        if not self.pinned:
            graph = self.builder(point, g_seed, self.cache_dir)
        return self.record(graph, point, p_seed)


class BatchWorker:
    """Canonical batched execution path: one task per point's trial block.

    Spawns the same per-trial ``(graph, protocol)`` seed pairs as
    :class:`PerTrialWorker`, builds one graph per point (from the first
    trial's graph seed) unless pinned, and hands the protocol seeds to
    ``batch`` — so trial ``r`` of a point consumes a protocol stream
    bit-identical to the reference path's; the batched backend
    conditions a point's trials on a single graph draw.
    """

    def __init__(
        self,
        batch: Callable,
        *,
        pinned: bool = False,
        pair_seeds: bool = True,
        builder: Callable | None = None,
        cache_dir: str | None = None,
        kernel: str | None = None,
        threads: int | None = None,
        seed_mode: str | None = None,
    ):
        self.batch = batch
        self.pinned = pinned
        self.pair_seeds = pair_seeds
        self.builder = builder or build_point_graph
        self.cache_dir = cache_dir
        self.kernel = kernel
        self.threads = threads
        self.seed_mode = seed_mode

    def __call__(self, *task):
        if self.pinned:
            graph, point, seed_seqs, _trials = task
        else:
            point, seed_seqs, _trials = task
        if self.pair_seeds:
            pairs = [ss.spawn(2) for ss in seed_seqs]
            p_seeds = [p_seed for _g_seed, p_seed in pairs]
        else:
            pairs = None
            p_seeds = list(seed_seqs)
        if not self.pinned:
            g_seed = pairs[0][0] if pairs else None
            graph = self.builder(point, g_seed, self.cache_dir)
        kwargs = {}
        if self.kernel is not None:
            kwargs["kernel"] = self.kernel
        if self.threads is not None:
            # Travels in the pickled worker: an explicit plan-level
            # thread budget reaches pool processes even though their
            # REPRO_KERNEL_THREADS environment half is reset to 1.
            kwargs["threads"] = self.threads
        if self.seed_mode is not None:
            kwargs["seed_mode"] = self.seed_mode
        return self.batch(graph, point, p_seeds, **kwargs)


# ---------------------------------------------------------------------------
# The single entry point.
# ---------------------------------------------------------------------------


def _capped_threads(plan: RunPlan) -> int | None:
    """The plan's kernel-thread budget, capped against its process count.

    Threads multiply processes — an explicit ``BackendSpec(threads=8)``
    on an 8-core box dispatched to an 8-worker pool would run 64
    runnable threads.  The cap keeps threads × processes at or below
    the core count (serial runs keep the full budget); the capped value
    travels inside the pickled worker.
    """
    threads = plan.backend.threads
    if threads is None or threads <= 1:
        return threads
    from .parallel.pool import available_cpus, default_processes

    nproc = plan.execution.resolve_processes()
    if nproc is None:
        # The batched backend dispatches one task per grid point.
        nproc = default_processes(len(plan.points()))
    if nproc <= 1:
        return threads
    cores = available_cpus()
    return max(1, min(threads, cores // nproc))


def _build_worker(plan: RunPlan):
    """The plan's canonical picklable worker + its sweep backend name."""
    pinned = plan.graph.mode == "pinned"
    # philox keeps the (graph, protocol) pair spawn — only the protocol
    # halves' interpretation changes, inside the engine
    pair = plan.seeds.mode in ("pair", "philox")
    cache_dir = plan.graph.cache_dir if plan.graph.mode == "cached" else None
    if plan.backend.name == "batched":
        worker = BatchWorker(
            plan.work.batch,
            pinned=pinned,
            pair_seeds=pair,
            builder=plan.graph.builder,
            cache_dir=cache_dir,
            kernel=plan.backend.kernel,
            threads=_capped_threads(plan),
            # Pin the plan's seed mode whenever the batch fn can take it:
            # a plan's bits must not depend on REPRO_SEED_MODE in the
            # worker's environment.  Legacy batch fns without the keyword
            # are only valid for non-philox modes (validate() enforces
            # this), where the engine default already matches "pair".
            seed_mode=(
                plan.seeds.mode
                if _accepts_kw(plan.work.batch, "seed_mode")
                else None
            ),
        )
        return worker, "batched"
    worker = PerTrialWorker(
        plan.work.record,
        pinned=pinned,
        pair_seeds=pair,
        builder=plan.graph.builder,
        cache_dir=cache_dir,
    )
    return worker, "per_trial"


def execute(plan: RunPlan, *, resume: str | os.PathLike | None = None):
    """Run a validated :class:`RunPlan`; the one dispatch pipeline.

    Owns backend resolution (reference/batched + kernel gate), graph
    provisioning (generate / cached / pinned zero-copy), dispatch
    (serial, pool, persistent workers), and the results carrier
    (``records`` → ``list[dict]``, ``columnar`` →
    :class:`~repro.parallel.aggregate.ResultTable`).  Record content is
    identical across every axis combination; seeds follow the
    (point, trial) spawning contract, so switching any axis never
    changes a trial's randomness.

    ``ResultSpec(sink="spool", dir=...)`` routes the run through the
    durable path (:mod:`repro.durable`): per-grid-point blocks stream
    to disk under a crash-supervised pool, and ``resume=dir`` replays
    the journal of an interrupted run — completed points load from
    their checksummed blocks, missing ones re-run with their original
    seeds, and the assembled table is bit-identical to a run that was
    never interrupted (a plan whose fingerprint disagrees with the
    journal raises :class:`~repro.errors.ResumeMismatchError` instead).
    ``resume=`` on a plan without a spool sink adopts ``dir`` as the
    spool, so ``execute(plan, resume=d)`` alone round-trips.
    """
    if resume is not None:
        rs = plan.results
        if rs.sink == "spool" and rs.dir and Path(rs.dir).resolve() != Path(resume).resolve():
            raise PlanError(
                f"resume={str(resume)!r} contradicts results.dir={rs.dir!r}"
            )
        plan = plan.override(results=replace(rs, sink="spool", dir=str(resume)))
    plan.validate()
    if plan.results.sink == "spool":
        return _execute_durable(plan)
    worker, sweep_backend = _build_worker(plan)
    return run_sweep(
        worker,
        plan.grid,
        n_trials=plan.trials,
        seed=plan.seeds.root,
        seeds=plan.seeds.seeds,
        processes=plan.execution.resolve_processes(),
        chunksize=plan.execution.chunksize,
        backend=sweep_backend,
        graph=plan.graph.graph if plan.graph.mode == "pinned" else None,
        results=plan.results.mode,
    )


def _execute_durable(plan: RunPlan):
    """The spool-sink pipeline: journal, supervised dispatch, assembly.

    The unit of work is one grid point under *both* backends — the
    reference backend's per-trial worker is looped over a point's trial
    block in-process (:class:`~repro.parallel.sweep._TrialBlockRunner`)
    — so every finished point is one atomic checksummed block file plus
    one journal line, and crash/timeout blame lands on whole points.
    Completed points found in a matching journal are skipped (their
    blocks re-verified by checksum first); quarantined or torn points
    re-run with the seeds the full spawn assigns them, which is what
    makes a resumed table bit-identical to an uninterrupted one.
    """
    from .durable.journal import JOURNAL_NAME, JournalWriter, plan_fingerprint
    from .durable.spool import SpoolReader, write_block
    from .durable.supervisor import RetryPolicy, TaskFailure
    from .errors import ResumeMismatchError
    from .parallel.pool import default_processes, map_parallel
    from .parallel.shared import graph_context
    from .parallel.sweep import _BatchPointRunner, _TrialBlockRunner
    from .rng import spawn_seeds

    points = plan.points()
    trials = plan.trials
    fingerprint = plan_fingerprint(plan)
    root = Path(plan.results.dir)
    root.mkdir(parents=True, exist_ok=True)
    journal_path = root / JOURNAL_NAME

    done: dict[int, dict] = {}
    fresh = not journal_path.exists()
    if not fresh:
        reader = SpoolReader(root)
        found = reader.header.get("fingerprint")
        if found != fingerprint:
            raise ResumeMismatchError(
                f"{journal_path}: journal belongs to a different plan "
                f"(fingerprint {str(found)[:12]}…, this plan {fingerprint[:12]}…)"
            )
        done = reader.verified_completed()
    pending = [i for i in range(len(points)) if i not in done]

    nproc = plan.execution.resolve_processes()
    if nproc is None:
        nproc = default_processes(max(1, len(pending)))

    if plan.seeds.seeds is not None:
        seeds = list(plan.seeds.seeds)
    else:
        seeds = spawn_seeds(plan.seeds.root, len(points) * trials)

    worker, sweep_backend = _build_worker(plan)
    pinned = plan.graph.mode == "pinned"
    if sweep_backend == "batched":
        runner = _BatchPointRunner(worker, with_graph=pinned, columnar=True)
    else:
        runner = _TrialBlockRunner(worker, with_graph=pinned)
    tasks = [
        (points[i], seeds[i * trials : (i + 1) * trials], list(range(trials)))
        for i in pending
    ]
    if trials == 0:
        tasks = []
        pending = []

    writer = JournalWriter(journal_path)
    try:
        if fresh:
            writer.write_header(
                fingerprint=fingerprint,
                work=plan.work.name or getattr(plan.work.record, "__name__", "?"),
                points=len(points),
                trials=trials,
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
        if tasks:
            if pinned:
                with graph_context(plan.graph.graph, processes=nproc) as (
                    _view,
                    initializer,
                    initargs,
                ):
                    map_parallel(
                        runner,
                        tasks,
                        processes=nproc,
                        initializer=initializer,
                        initargs=initargs,
                        policy=policy,
                        on_result=persist,
                    )
            else:
                map_parallel(
                    runner, tasks, processes=nproc, policy=policy, on_result=persist
                )
    finally:
        writer.close()

    table = SpoolReader(root).table()
    return table if plan.results.mode == "columnar" else table.to_records()
