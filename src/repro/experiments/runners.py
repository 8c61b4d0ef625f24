"""Experiment runners: one function per registry entry, E1..E12.

Every runner returns ``(rows, meta)``: ``rows`` are table records ready
for :func:`repro.analysis.format_table`; ``meta`` carries fits and
derived scalars (``repro-lb run`` prints it after the table).  All
workers are module-level so the process pool can pickle them; every
trial gets a spawned seed, so runs are reproducible for a fixed root
``seed`` regardless of process count.

Runners are **thin plan builders**: each one maps its kwargs onto a
declarative :class:`repro.plan.RunPlan` (grid + trials + seed policy +
backend + graph provisioning + dispatch + sink) and hands it to
:func:`repro.plan.execute` — the single pipeline that owns backend
resolution, graph provisioning, pool dispatch, and the memory or
spool sink, and always returns a
:class:`~repro.parallel.aggregate.ResultTable`.  What stays here is the
science: the per-trial record functions (``record(graph, point, seed)
-> dict`` / ``batch(graph, point, seeds) -> ResultBlock``) and the
table-row assembly, which reads the table's typed columns instead of
looping per-trial dicts.  Subpackages only some runners use
(``baselines``, ``dynamic``, ``faults``, ``serve``) are imported inside
the functions that use them, so a sweep loads only what it runs.

Default parameter choices were calibrated so the *shape* under test is
visible (the claims are listed in the "Experiments" section of
README.md):

* ``c = 1.5, d = 4`` — the contended-but-terminating regime where
  completion time clearly grows with ``log n``;
* ``c = 1.2`` — the burnout regime (all servers burn, protocol stalls);
* ``c ≥ 2`` — the comfortable regime (few burns, 3-4 rounds);
* the paper-scale ``c`` from :func:`repro.theory.c_min_regular` — the
  analysis regime where Lemma 4's ``S_t ≤ 1/2`` is guaranteed.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from ..analysis.fitting import fit_log2, fit_powerlaw
from ..analysis.stats import wilson_interval
from ..batch import run_trials_batched
from ..batch.results import ResultBlock
from ..core.config import ProtocolParams, RunOptions
from ..core.coupling import run_coupled
from ..core.engine import run_raes, run_saer
from ..core.metrics import TraceLevel
from ..errors import ExperimentError
from ..graphs import degree_report, random_regular_bipartite
from ..graphs.families import build_point_graph, canonical_degree
from ..parallel.aggregate import aggregate_records, summarize
from ..parallel.pool import worker_state
from ..parallel.sweep import ParameterGrid
from ..plan import (
    BackendSpec,
    ExecSpec,
    GraphSpec,
    ResultSpec,
    RunPlan,
    SeedSpec,
    WorkSpec,
    execute,
)
from ..rng import child_seed
from ..theory.bounds import c_min_regular, completion_horizon
from ..theory.recurrences import delta_sequence, gamma_products, gamma_sequence, stage1_length

__all__ = [
    "run_e01_completion",
    "run_e02_work",
    "run_e03_max_load",
    "run_e04_burned_fraction",
    "run_e05_dominance",
    "run_e06_c_threshold",
    "run_e07_degree_sweep",
    "run_e08_almost_regular",
    "run_e09_baselines",
    "run_e10_stage1",
    "run_e11_alive_decay",
    "run_e12_dynamic",
    "run_s1_serve",
    "run_f1_faults",
]


# ---------------------------------------------------------------------------
# E1 / E2 — completion time O(log n), work Θ(n)
# ---------------------------------------------------------------------------


def _saer_run_record(graph, point: Mapping, p_seed) -> dict:
    """One reference-engine SAER run on ``graph`` → the canonical record.

    The single source of the per-trial record schema; every execution
    path (fresh-graph, cached, shared-topology, batched) must emit
    these keys.
    """
    opts = RunOptions(max_rounds=point.get("max_rounds"))
    res = run_saer(graph, point["c"], point["d"], seed=p_seed, options=opts)
    rep = degree_report(graph)
    return {
        "completed": res.completed,
        "rounds": res.rounds,
        "work": res.work,
        "work_per_client": res.work_per_client,
        "max_load": res.max_load,
        "capacity": res.params.capacity,
        "blocked_servers": res.blocked_servers,
        "rho": rep.rho,
        "deg_min_c": rep.client_degree_min,
    }


def _saer_batch_block(
    graph, point: Mapping, p_seeds, kernel: str | None = None,
    threads: int | None = None,
) -> ResultBlock:
    """One batched-engine trial block on ``graph`` → a columnar
    :class:`~repro.batch.results.ResultBlock` (field-for-field the
    schema of :func:`_saer_run_record`, built straight from the engine's
    per-trial arrays — no per-dict loop).

    Runs on the worker's persistent engine buffers
    (:func:`repro.parallel.pool.worker_state`), so a process sweeping
    many grid points allocates its staging arrays, received slab, and
    RNG read-ahead once.  ``kernel`` pins the round-kernel gate and
    ``threads`` the compiled kernel's trial-partitioned thread budget
    (``None`` defers to ``REPRO_KERNELS`` / ``REPRO_KERNEL_THREADS``).
    """
    # The block reads no final loads, so the engine keeps none.
    opts = RunOptions(max_rounds=point.get("max_rounds"), record_loads=False)
    res = run_trials_batched(
        graph,
        ProtocolParams(c=point["c"], d=point["d"]),
        "saer",
        seeds=p_seeds,
        options=opts,
        kernel=kernel,
        threads=threads,
        buffers=worker_state().engine_buffers,
    )
    rep = degree_report(graph)
    n_c = graph.n_clients
    R = res.n_trials
    return ResultBlock.from_columns(
        point,
        range(R),
        {
            "completed": res.completed,
            "rounds": res.rounds,
            "work": res.work,
            "work_per_client": res.work / n_c if n_c else np.zeros(R),
            "max_load": res.max_load,
            "capacity": np.full(R, res.params.capacity),
            "blocked_servers": res.blocked_servers,
            "rho": np.full(R, rep.rho),
            "deg_min_c": np.full(R, rep.client_degree_min),
        },
    )


#: The SAER sweep's science, in the plan layer's two canonical shapes.
_SAER_WORK = WorkSpec(record=_saer_run_record, batch=_saer_batch_block, name="saer")


def _saer_plan(
    grid, *, trials, seed, processes, backend="reference", graph=None,
    graph_cache=None, kernel=None, kernel_threads=None, spool=None,
    seed_mode=None,
) -> RunPlan:
    """Map the historical SAER-runner kwargs onto a :class:`RunPlan`.

    ``graph`` (a :class:`~repro.graphs.bipartite.BipartiteGraph` or
    :class:`~repro.parallel.SharedGraph`) pins one topology for every
    (point, trial) and ships it to workers zero-copy; ``graph_cache``
    routes worker-side graph builds through the on-disk cache.  The two
    are exclusive (a pinned graph is never rebuilt).  ``kernel_threads``
    is the compiled round kernel's trial-partitioned thread budget
    (bit-identical at every count; capped by ``execute`` so threads ×
    processes stays within the core budget).  ``spool`` switches the
    sink to the durable on-disk spool at that directory
    (crash-supervised, resumable; see :mod:`repro.durable`).  ``seed_mode``
    is :class:`repro.plan.SeedSpec`'s ``mode`` (``"pair"`` default;
    ``"direct"`` needs the pinned ``graph``).
    """
    if backend not in ("reference", "batched"):
        raise ExperimentError(f"unknown backend {backend!r}; known: reference, batched")
    return RunPlan(
        grid=grid,
        work=_SAER_WORK,
        trials=trials,
        seeds=SeedSpec(root=seed, mode=seed_mode or "pair"),
        # The kernel gate and thread budget only exist on the batched
        # engine; reference runs ignore them (matching the old
        # REPRO_KERNELS / REPRO_KERNEL_THREADS env behaviour).
        backend=BackendSpec(
            name=backend,
            kernel=kernel if backend == "batched" else None,
            threads=kernel_threads if backend == "batched" else None,
        ),
        graph=GraphSpec(cache_dir=graph_cache, graph=graph),
        execution=ExecSpec(processes=processes),
        results=ResultSpec(dir=str(spool) if spool else None),
    )


def _part_dir(root: "str | None", index: int) -> "str | None":
    """Sub-spool directory for a runner that executes several plans.

    E7/E8 run one :func:`~repro.plan.execute` per sub-grid; each gets
    its own journal (fingerprints differ by design), so a runner-level
    ``--spool``/``--resume`` directory fans out into ``part-NN/``
    children.  ``None`` passes through (no spool).
    """
    if root is None:
        return None
    import os as _os

    return _os.path.join(str(root), f"part-{index:02d}")


def run_e01_completion(
    ns=(256, 512, 1024, 2048, 4096),
    c: float = 1.5,
    d: int = 4,
    trials: int = 10,
    seed=101,
    processes: int | None = None,
    backend: str = "reference",
    graph_cache: str | None = None,
    kernel: str | None = None,
    kernel_threads: int | None = None,
    spool: str | None = None,
    resume: str | None = None,
    seed_mode: str | None = None,
) -> tuple[list[dict], dict]:
    """E1: median completion rounds vs n, with the log fit and horizon."""
    grid = ParameterGrid(n=list(ns), c=[c], d=[d])
    table = execute(_saer_plan(
        grid, trials=trials, seed=seed, processes=processes, backend=backend,
        graph_cache=graph_cache, kernel=kernel,
        kernel_threads=kernel_threads, spool=spool, seed_mode=seed_mode,
    ), resume=resume)
    rows = []
    for n in ns:
        bucket = table.where(n=n)
        rounds = bucket.column("rounds")
        completed = bucket.column("completed").astype(bool)
        stats = summarize(rounds)
        horizon = completion_horizon(n)
        rows.append(
            {
                "n": n,
                "degree": canonical_degree(n),
                "trials": len(bucket),
                "completed": int(completed.sum()),
                "rounds_median": stats["median"],
                "rounds_mean": round(stats["mean"], 2),
                "rounds_max": stats["max"],
                "horizon_3log2n": horizon,
                "within_horizon": bool(np.all(rounds[completed] <= horizon)),
            }
        )
    fit = fit_log2([r["n"] for r in rows], [r["rounds_median"] for r in rows])
    pw = fit_powerlaw([r["n"] for r in rows], [max(r["rounds_median"], 1e-9) for r in rows])
    meta = {
        "c": c,
        "d": d,
        "backend": backend,
        "log2_fit": fit.describe(),
        "log2_r2": fit.r2,
        "power_exponent": pw.slope,
        "records": table,
    }
    return rows, meta


def run_e02_work(
    ns=(256, 512, 1024, 2048, 4096),
    c: float = 1.5,
    d: int = 4,
    trials: int = 10,
    seed=202,
    processes: int | None = None,
    backend: str = "reference",
    graph_cache: str | None = None,
    kernel: str | None = None,
    kernel_threads: int | None = None,
    spool: str | None = None,
    resume: str | None = None,
    seed_mode: str | None = None,
) -> tuple[list[dict], dict]:
    """E2: work per client vs n (flat ⇔ Θ(n) total), plus power-law fit."""
    grid = ParameterGrid(n=list(ns), c=[c], d=[d])
    table = execute(_saer_plan(
        grid, trials=trials, seed=seed, processes=processes, backend=backend,
        graph_cache=graph_cache, kernel=kernel,
        kernel_threads=kernel_threads, spool=spool, seed_mode=seed_mode,
    ), resume=resume)
    rows = []
    for n in ns:
        bucket = table.where(n=n)
        wpc = summarize(bucket.column("work_per_client"))
        rows.append(
            {
                "n": n,
                "trials": len(bucket),
                "work_mean": round(summarize(bucket.column("work"))["mean"], 1),
                "work_per_client_mean": round(wpc["mean"], 3),
                "work_per_client_max": round(wpc["max"], 3),
                "naive_lower_bound": 2 * d,  # every ball must be sent (and answered) once
            }
        )
    pw = fit_powerlaw(
        [r["n"] for r in rows], [r["work_mean"] for r in rows]
    )
    meta = {
        "c": c,
        "d": d,
        "backend": backend,
        "power_fit": pw.describe(),
        "power_exponent": pw.slope,
        "records": table,
    }
    return rows, meta


# ---------------------------------------------------------------------------
# E3 — max load <= c·d across families
# ---------------------------------------------------------------------------


def _family_record(graph, point: Mapping, p_seed) -> dict:
    """One run of the point's protocol on ``graph`` → the E3 record."""
    protocol = point.get("protocol", "saer")
    runner = run_saer if protocol == "saer" else run_raes
    res = runner(graph, point["c"], point["d"], seed=p_seed)
    loads = res.loads
    return {
        "completed": res.completed,
        "rounds": res.rounds,
        "max_load": res.max_load,
        "capacity": res.params.capacity,
        "violation": res.max_load > res.params.capacity,
        "p99_load": float(np.quantile(loads, 0.99)) if loads is not None else float("nan"),
        "mean_load": float(loads.mean()) if loads is not None else float("nan"),
    }


def run_e03_max_load(
    n: int = 1024,
    settings=((1.5, 4), (2.0, 2), (4.0, 2)),
    families=("regular", "trust", "near_regular", "er"),
    trials: int = 5,
    seed=303,
    processes: int | None = None,
) -> tuple[list[dict], dict]:
    """E3: the load invariant across graph families, protocols and (c,d)."""
    grid = ParameterGrid(
        family=list(families),
        protocol=["saer", "raes"],
        cd=list(settings),
    )
    # A non-cartesian design ((c, d) travels as one axis): expand to an
    # explicit point list — plans take those directly.
    points = []
    for p in grid.points():
        c, d = p.pop("cd")
        p.update(n=n, c=c, d=d)
        points.append(p)
    recs = execute(RunPlan(
        grid=points,
        work=WorkSpec(record=_family_record, name="e03-max-load"),
        trials=trials,
        seeds=SeedSpec(root=seed),
        execution=ExecSpec(processes=processes),
    ))
    rows = aggregate_records(
        recs, group_by=["family", "protocol", "c", "d"], fields=["max_load", "p99_load", "rounds"]
    )
    violation = recs.column("violation")
    for row in rows:
        row["capacity"] = int(math.floor(row["c"] * row["d"]))
        row["violations"] = int(
            recs.where(
                family=row["family"], protocol=row["protocol"], c=row["c"], d=row["d"]
            )
            .column("violation")
            .sum()
        )
    meta = {
        "total_runs": len(recs),
        "total_violations": int(violation.sum()),
        "records": recs,
    }
    return rows, meta


# ---------------------------------------------------------------------------
# E4 — Lemma 4: S_t <= 1/2
# ---------------------------------------------------------------------------


def _burned_fraction_record(graph, point: Mapping, p_seed) -> dict:
    res = run_saer(
        graph, point["c"], point["d"], seed=p_seed, trace=TraceLevel.FULL
    )
    horizon = completion_horizon(point["n"])
    s = np.asarray(res.trace.s_t, dtype=np.float64)
    s_in_horizon = s[: min(horizon, s.size)]
    return {
        "completed": res.completed,
        "rounds": res.rounds,
        "max_s_t": float(s_in_horizon.max()) if s_in_horizon.size else 0.0,
        "max_k_t": res.trace.max_k_t(),
        "lemma4_ok": bool(s_in_horizon.size == 0 or s_in_horizon.max() <= 0.5),
    }


def run_e04_burned_fraction(
    ns=(256, 1024, 4096),
    d: int = 4,
    trials: int = 10,
    include_paper_c: bool = True,
    seed=404,
    processes: int | None = None,
) -> tuple[list[dict], dict]:
    """E4: max_t S_t within the 3·log n horizon, at practical and paper c."""
    rows: list[dict] = []
    all_recs: list[dict] = []
    for n in ns:
        deg = canonical_degree(n)
        eta = deg / (math.log2(n) ** 2)
        c_values = [("practical-1.5", 1.5), ("practical-2", 2.0)]
        if include_paper_c:
            c_values.append(("paper", round(c_min_regular(eta, d), 1)))
        for label, c in c_values:
            table = execute(RunPlan(
                grid=ParameterGrid(n=[n], c=[c], d=[d]),
                work=WorkSpec(record=_burned_fraction_record, name="e04-burned"),
                trials=trials,
                seeds=SeedSpec(root=seed),
                execution=ExecSpec(processes=processes),
            ))
            all_recs.extend(table)
            s_stats = summarize(table.column("max_s_t"))
            ok = int(table.column("lemma4_ok").sum())
            rows.append(
                {
                    "n": n,
                    "c_regime": label,
                    "c": c,
                    "trials": len(table),
                    "max_s_t_mean": round(s_stats["mean"], 4),
                    "max_s_t_worst": round(s_stats["max"], 4),
                    "bound": 0.5,
                    "lemma4_ok": f"{ok}/{len(table)}",
                }
            )
    meta = {"d": d, "records": all_recs}
    return rows, meta


# ---------------------------------------------------------------------------
# E5 — Corollary 2: coupled dominance
# ---------------------------------------------------------------------------


def _coupled_record(graph, point: Mapping, p_seed) -> dict:
    cp = run_coupled(graph, point["c"], point["d"], seed=p_seed)
    return {
        "nested": cp.nested_every_round,
        "raes_no_later": cp.raes_no_later,
        "saer_rounds": cp.saer.rounds,
        "raes_rounds": cp.raes.rounds,
        "saer_completed": cp.saer.completed,
        "raes_completed": cp.raes.completed,
        "alive_dominated": bool(np.all(cp.alive_raes <= cp.alive_saer)),
    }


def run_e05_dominance(
    ns=(256, 1024),
    cs=(1.5, 2.0),
    d: int = 4,
    trials: int = 10,
    seed=505,
    processes: int | None = None,
) -> tuple[list[dict], dict]:
    """E5: pathwise RAES-dominates-SAER under slot coupling."""
    grid = ParameterGrid(n=list(ns), c=list(cs), d=[d])
    recs = execute(RunPlan(
        grid=grid,
        work=WorkSpec(record=_coupled_record, name="e05-dominance"),
        trials=trials,
        seeds=SeedSpec(root=seed),
        execution=ExecSpec(processes=processes),
    ))
    rows = []
    for n in ns:
        for c in cs:
            bucket = recs.where(n=n, c=c)
            rows.append(
                {
                    "n": n,
                    "c": c,
                    "trials": len(bucket),
                    "nested_every_round": int(bucket.column("nested").sum()),
                    "alive_dominated": int(bucket.column("alive_dominated").sum()),
                    "raes_no_later": int(bucket.column("raes_no_later").sum()),
                    "saer_rounds_mean": round(
                        summarize(bucket.column("saer_rounds"))["mean"], 2
                    ),
                    "raes_rounds_mean": round(
                        summarize(bucket.column("raes_rounds"))["mean"], 2
                    ),
                }
            )
    meta = {
        "d": d,
        "all_nested": bool(np.all(recs.column("nested"))),
        "all_dominated": bool(np.all(recs.column("alive_dominated"))),
        "records": recs,
    }
    return rows, meta


# ---------------------------------------------------------------------------
# E6 — threshold behaviour in c
# ---------------------------------------------------------------------------


def run_e06_c_threshold(
    n: int = 1024,
    cs=(1.0, 1.2, 1.35, 1.5, 2.0, 3.0, 4.0, 8.0, 16.0, 32.0),
    d: int = 4,
    trials: int = 10,
    seed=606,
    processes: int | None = None,
    backend: str = "reference",
    share_graph: bool = False,
    graph_cache: str | None = None,
    kernel: str | None = None,
    kernel_threads: int | None = None,
    spool: str | None = None,
    resume: str | None = None,
    seed_mode: str | None = None,
) -> tuple[list[dict], dict]:
    """E6: completion rate / speed as c sweeps from starvation to paper-scale.

    ``share_graph=True`` pins one Δ-regular topology (built once, cached
    when ``graph_cache`` is set) for the entire sweep and hands workers
    a zero-copy view instead of rebuilding per task — the scale-axis
    fast path, since every point of this sweep shares ``n`` and the
    degree.  The estimate then conditions on a single graph draw (the
    protocol-level Monte Carlo, like the batched backend's per-point
    conditioning, taken sweep-wide).
    """
    grid = ParameterGrid(n=[n], c=list(cs), d=[d])
    graph = None
    if share_graph:
        # Disjoint from the sweep's task seeds: the first len(grid)*trials
        # children are exactly the sweep's spawn, so take the next one.
        g_seed = child_seed(np.random.SeedSequence(seed), len(grid) * trials)
        graph = build_point_graph({"n": n}, g_seed, graph_cache)
    table = execute(_saer_plan(
        grid,
        trials=trials,
        seed=seed,
        processes=processes,
        backend=backend,
        graph=graph,
        graph_cache=None if share_graph else graph_cache,
        kernel=kernel,
        kernel_threads=kernel_threads,
        spool=spool,
        seed_mode=seed_mode,
    ), resume=resume)
    rows = []
    for c in cs:
        bucket = table.where(c=c)
        completed = bucket.column("completed").astype(bool)
        done = int(completed.sum())
        rate, lo, hi = wilson_interval(done, len(bucket))
        done_rounds = bucket.column("rounds")[completed]
        rows.append(
            {
                "c": c,
                "capacity": int(math.floor(c * d)),
                "trials": len(bucket),
                "completion_rate": round(rate, 3),
                "rate_ci": f"[{lo:.2f},{hi:.2f}]",
                "rounds_median": summarize(done_rounds)["median"] if done_rounds.size else None,
                "work_per_client": round(
                    summarize(bucket.column("work_per_client"))["mean"], 2
                ),
                "blocked_servers_mean": round(
                    summarize(bucket.column("blocked_servers"))["mean"], 1
                ),
            }
        )
    meta = {
        "n": n,
        "d": d,
        "backend": backend,
        "share_graph": share_graph,
        "records": table,
    }
    return rows, meta


# ---------------------------------------------------------------------------
# E7 — degree sweep around log² n
# ---------------------------------------------------------------------------


def run_e07_degree_sweep(
    n: int = 1024,
    c: float = 1.5,
    d: int = 4,
    trials: int = 10,
    seed=707,
    processes: int | None = None,
    backend: str = "reference",
    graph_cache: str | None = None,
    kernel: str | None = None,
    kernel_threads: int | None = None,
    spool: str | None = None,
    resume: str | None = None,
    seed_mode: str | None = None,
) -> tuple[list[dict], dict]:
    """E7: completion vs degree, from o(log² n) up to the complete graph."""
    log2n = math.log2(n)
    degree_specs = [
        ("log n", max(2, math.ceil(log2n))),
        ("log^1.5 n", max(2, math.ceil(log2n**1.5))),
        ("0.5·log² n", max(2, math.ceil(0.5 * log2n**2))),
        ("log² n", max(2, math.ceil(log2n**2))),
        ("sqrt n", math.ceil(math.sqrt(n))),
        ("n/4", n // 4),
        ("n (complete)", n),
    ]
    rows = []
    all_recs = []
    for part, (label, deg) in enumerate(degree_specs):
        grid = ParameterGrid(n=[n], c=[c], d=[d], degree=[deg])
        table = execute(_saer_plan(
            grid, trials=trials, seed=seed, processes=processes, backend=backend,
            graph_cache=graph_cache, kernel=kernel,
            kernel_threads=kernel_threads, spool=_part_dir(spool, part),
            seed_mode=seed_mode,
        ), resume=_part_dir(resume, part))
        all_recs.extend(table)
        completed = table.column("completed").astype(bool)
        done = int(completed.sum())
        rate, lo, hi = wilson_interval(done, len(table))
        done_rounds = table.column("rounds")[completed]
        rows.append(
            {
                "degree_regime": label,
                "degree": deg,
                "meets_hypothesis": deg >= log2n**2,
                "trials": len(table),
                "completion_rate": round(rate, 3),
                "rounds_median": summarize(done_rounds)["median"] if done_rounds.size else None,
                "rounds_max": summarize(done_rounds)["max"] if done_rounds.size else None,
                "horizon": completion_horizon(n),
            }
        )
    meta = {"n": n, "c": c, "d": d, "backend": backend, "records": all_recs}
    return rows, meta


# ---------------------------------------------------------------------------
# E8 — almost-regular families
# ---------------------------------------------------------------------------


def run_e08_almost_regular(
    n: int = 1024,
    c: float = 2.0,
    d: int = 4,
    ratios=(1, 2, 4),
    trials: int = 8,
    seed=808,
    processes: int | None = None,
    backend: str = "reference",
    graph_cache: str | None = None,
    kernel: str | None = None,
    kernel_threads: int | None = None,
    spool: str | None = None,
    resume: str | None = None,
    seed_mode: str | None = None,
) -> tuple[list[dict], dict]:
    """E8: the ρ allowance — near-regular ratio sweep plus paper_extremal."""
    rows = []
    all_recs = []
    base = canonical_degree(n)

    def _row(label: str, table) -> dict:
        completed = table.column("completed").astype(bool)
        done_rounds = table.column("rounds")[completed]
        return {
            "family": label,
            "rho_measured": round(summarize(table.column("rho"))["mean"], 2),
            "trials": len(table),
            "completed": int(completed.sum()),
            "rounds_median": summarize(done_rounds)["median"] if done_rounds.size else None,
            "rounds_max": summarize(done_rounds)["max"] if done_rounds.size else None,
            "horizon": completion_horizon(n),
        }

    for part, ratio in enumerate(ratios):
        fam = "regular" if ratio == 1 else "near_regular"
        grid = ParameterGrid(
            n=[n],
            c=[c],
            d=[d],
            family=[fam],
            degree_lo=[base],
            degree_hi=[min(base * ratio, n)],
        )
        table = execute(_saer_plan(
            grid, trials=trials, seed=seed, processes=processes, backend=backend,
            graph_cache=graph_cache, kernel=kernel,
            kernel_threads=kernel_threads, spool=_part_dir(spool, part),
            seed_mode=seed_mode,
        ), resume=_part_dir(resume, part))
        all_recs.extend(table)
        rows.append(
            _row(f"near_regular ρ≈{ratio}" if ratio > 1 else "regular (ρ=1)", table)
        )
    # The paper's extremal example (√n-degree clients, O(1)-degree servers).
    grid = ParameterGrid(n=[n], c=[c], d=[d], family=["paper_extremal"], eta=[0.5])
    table = execute(_saer_plan(
        grid, trials=trials, seed=seed, processes=processes, backend=backend,
        graph_cache=graph_cache, kernel=kernel,
        kernel_threads=kernel_threads, spool=_part_dir(spool, len(ratios)),
        seed_mode=seed_mode,
    ), resume=_part_dir(resume, len(ratios)))
    all_recs.extend(table)
    rows.append(_row("paper_extremal (√n clients, O(1) servers)", table))
    meta = {"n": n, "c": c, "d": d, "backend": backend, "records": all_recs}
    return rows, meta


# ---------------------------------------------------------------------------
# E9 — baselines comparison
# ---------------------------------------------------------------------------


def _baseline_record(graph, point: Mapping, a_seed) -> dict:
    from ..baselines import (
        godfrey_greedy,
        greedy_best_of_k,
        one_choice,
        run_parallel_greedy,
        run_threshold_protocol,
    )

    algo, c, d = point["algorithm"], point["c"], point["d"]
    if algo == "saer":
        r = run_saer(graph, c, d, seed=a_seed)
        return {
            "algorithm": "saer",
            "rounds": r.rounds,
            "steps": r.rounds,
            "work": r.work,
            "max_load": r.max_load,
            "completed": r.completed,
            "discloses_loads": False,
        }
    if algo == "raes":
        r = run_raes(graph, c, d, seed=a_seed)
        return {
            "algorithm": "raes",
            "rounds": r.rounds,
            "steps": r.rounds,
            "work": r.work,
            "max_load": r.max_load,
            "completed": r.completed,
            "discloses_loads": False,
        }
    if algo == "threshold":
        b = run_threshold_protocol(graph, d, threshold=d, seed=a_seed)
    elif algo == "parallel_greedy":
        b = run_parallel_greedy(graph, d, k=2, seed=a_seed)
    elif algo == "one_choice":
        b = one_choice(graph, d, seed=a_seed)
    elif algo == "best_of_2":
        b = greedy_best_of_k(graph, d, k=2, seed=a_seed)
    elif algo == "godfrey":
        b = godfrey_greedy(graph, d, seed=a_seed)
    else:  # pragma: no cover
        raise ValueError(algo)
    return {
        "algorithm": b.algorithm,
        "rounds": b.rounds,
        "steps": b.steps,
        "work": b.work,
        "max_load": b.max_load,
        "completed": b.completed,
        "discloses_loads": b.discloses_loads,
    }


def run_e09_baselines(
    n: int = 1024,
    c: float = 2.0,
    d: int = 4,
    trials: int = 5,
    seed=909,
    processes: int | None = None,
) -> tuple[list[dict], dict]:
    """E9: SAER/RAES vs threshold, parallel greedy, and sequential baselines."""
    algos = [
        "saer",
        "raes",
        "threshold",
        "parallel_greedy",
        "one_choice",
        "best_of_2",
        "godfrey",
    ]
    degree = canonical_degree(n)
    points = [
        {"algorithm": algo, "n": n, "c": c, "d": d, "degree": degree}
        for algo in algos
    ]
    recs = execute(RunPlan(
        grid=points,
        work=WorkSpec(record=_baseline_record, name="e09-baselines"),
        trials=trials,
        seeds=SeedSpec(root=seed),
        execution=ExecSpec(processes=processes),
    ))
    rows = aggregate_records(
        recs, group_by=["algorithm", "discloses_loads"], fields=["max_load", "rounds", "steps", "work"]
    )
    for row in rows:
        row["parallel_time"] = (
            f"{row['rounds_median']:.0f} rounds" if row["rounds_median"] > 0 else "sequential"
        )
    meta = {"n": n, "c": c, "d": d, "capacity": int(math.floor(c * d)), "records": recs}
    return rows, meta


# ---------------------------------------------------------------------------
# E10 — Stage-I decay vs the γ envelope
# ---------------------------------------------------------------------------


def _stage1_record(graph, point: Mapping, seed_seq) -> dict:
    """One fully-traced SAER run on the pinned E10 topology.

    Runs under ``SeedSpec(mode="direct")``: the task seed *is* the
    protocol seed (no graph/protocol pair spawn — the graph is pinned
    and was built in the parent from its own seed).
    """
    res = run_saer(
        graph, point["c"], point["d"], seed=seed_seq, trace=TraceLevel.FULL
    )
    return {
        "rounds": res.rounds,
        "completed": res.completed,
        "k_t": np.asarray(res.trace.k_t, dtype=np.float64),
        "r_neigh_max": np.asarray(res.trace.r_neigh_max, dtype=np.int64),
        "s_t": np.asarray(res.trace.s_t, dtype=np.float64),
    }


def run_e10_stage1(
    n: int = 4096,
    d: int = 4,
    c: float | None = None,
    contended_c: float = 1.5,
    seed=1010,
) -> tuple[list[dict], dict]:
    """E10: per-round K_t vs γ_t, and the contended-regime decay curve.

    Two runs on the same graph:

    * **analysis regime** — the paper's ``c`` (Lemma 12 needs ``c ≥ 32``
      for the α = 4 decay).  At feasible simulation sizes the process
      then finishes in 1-2 rounds, which is itself the finding: the
      γ-envelope is extremely conservative.  Rows verify ``K_t ≤ γ_t``
      and ``r_t(N(v)) ≤ 2dΔ·Π_{j<t} γ_j``.
    * **contended regime** — ``c = contended_c`` (outside Lemma 12's
      hypotheses; no γ comparison), where the multi-round geometric
      decay of ``r_t`` is actually visible; rows report the measured
      per-round decay ratio against the measured ``1 - S_{t-1}`` (the
      survival probability the proof's recursion is built on).
    """
    deg = canonical_degree(n)
    eta = deg / (math.log2(n) ** 2)
    c_val = c if c is not None else round(c_min_regular(eta, d), 1)
    g_seed, p_seed, p2_seed = np.random.SeedSequence(seed).spawn(3)
    graph = random_regular_bipartite(n, deg, seed=g_seed)

    # Two runs, same pinned topology, explicitly supplied protocol seeds
    # (the historical 3-way spawn), one traced record per regime.
    paper_rec, contended_rec = execute(RunPlan(
        grid=[
            {"regime": "paper", "c": c_val, "d": d},
            {"regime": "contended", "c": contended_c, "d": d},
        ],
        work=WorkSpec(record=_stage1_record, name="e10-stage1"),
        trials=1,
        seeds=SeedSpec(mode="direct", seeds=(p_seed, p2_seed)),
        graph=GraphSpec(graph=graph),
        execution=ExecSpec(processes=1),
    ))

    rows: list[dict] = []
    horizon = min(paper_rec["rounds"], completion_horizon(n))
    gam = gamma_sequence(c_val, horizon + 1)
    prods = gamma_products(c_val, horizon + 1)
    T = stage1_length(n, d, deg, c_val)
    for t in range(1, horizon + 1):
        k_meas = float(paper_rec["k_t"][t - 1])
        r_meas = int(paper_rec["r_neigh_max"][t - 1])
        envelope = 2.0 * d * deg * prods[t - 1]
        rows.append(
            {
                "regime": f"paper c={c_val}",
                "t": t,
                "stage": "I" if t < T else "II",
                "K_t_measured": round(k_meas, 5),
                "gamma_t": round(float(gam[t]), 5),
                "K_le_gamma": k_meas <= float(gam[t]) + 1e-12,
                "r_neigh_max": r_meas,
                "envelope": round(envelope, 2),
                "r_le_envelope": r_meas <= envelope + 1e-9,
                "S_t": round(float(paper_rec["s_t"][t - 1]), 5),
                "decay_ratio": None,
            }
        )
    paper_rows = list(rows)

    contended_rounds = contended_rec["rounds"]
    r_series = np.asarray(contended_rec["r_neigh_max"], dtype=np.float64)
    s_series = np.asarray(contended_rec["s_t"], dtype=np.float64)
    for t in range(1, contended_rounds + 1):
        ratio = (
            round(float(r_series[t - 1] / r_series[t - 2]), 3)
            if t >= 2 and r_series[t - 2] > 0
            else None
        )
        rows.append(
            {
                "regime": f"contended c={contended_c}",
                "t": t,
                "stage": "-",
                "K_t_measured": round(float(contended_rec["k_t"][t - 1]), 5),
                "gamma_t": None,
                "K_le_gamma": None,
                "r_neigh_max": int(r_series[t - 1]),
                "envelope": None,
                "r_le_envelope": None,
                "S_t": round(float(s_series[t - 1]), 5),
                "decay_ratio": ratio,
            }
        )
    # Geometric decay diagnostic over the contended stage-I (r >= 12 log n).
    heavy = r_series >= 12 * math.log2(n)
    ratios = [
        r_series[i] / r_series[i - 1]
        for i in range(1, r_series.size)
        if heavy[i - 1] and r_series[i - 1] > 0
    ]
    meta = {
        "n": n,
        "d": d,
        "c_paper": c_val,
        "c_contended": contended_c,
        "degree": deg,
        "stage1_T": T,
        "paper_rounds": paper_rec["rounds"],
        "contended_rounds": contended_rounds,
        "all_K_below_gamma": all(r["K_le_gamma"] for r in paper_rows),
        "all_r_below_envelope": all(r["r_le_envelope"] for r in paper_rows),
        "contended_decay_geometric_mean": round(float(np.exp(np.mean(np.log(ratios)))), 4)
        if ratios
        else None,
        "delta_envelope_max": float(
            delta_sequence(n, d, deg, c_val, T, max(T, horizon)).max()
        ),
    }
    return rows, meta


# ---------------------------------------------------------------------------
# E11 — alive-ball decay factor
# ---------------------------------------------------------------------------


def _alive_decay_record(graph, point: Mapping, p_seed) -> dict:
    res = run_saer(graph, point["c"], point["d"], seed=p_seed, trace=TraceLevel.BASIC)
    alive = np.asarray(res.trace.alive_before, dtype=np.float64)
    n, d = point["n"], point["d"]
    heavy = alive >= n * d / math.log2(n)
    ratios = res.trace.alive_decay_ratios()
    heavy_ratios = ratios[heavy[:-1][: ratios.size]] if ratios.size else ratios
    return {
        "completed": res.completed,
        "rounds": res.rounds,
        "heavy_rounds": int(np.count_nonzero(heavy)),
        "max_heavy_ratio": float(heavy_ratios.max()) if heavy_ratios.size else 0.0,
        "mean_heavy_ratio": float(heavy_ratios.mean()) if heavy_ratios.size else 0.0,
    }


def run_e11_alive_decay(
    ns=(1024, 4096),
    c: float = 1.5,
    d: int = 4,
    trials: int = 10,
    seed=1111,
    processes: int | None = None,
) -> tuple[list[dict], dict]:
    """E11: per-round alive-ball shrink factor in the heavy regime vs 4/5."""
    grid = ParameterGrid(n=list(ns), c=[c], d=[d])
    recs = execute(RunPlan(
        grid=grid,
        work=WorkSpec(record=_alive_decay_record, name="e11-alive-decay"),
        trials=trials,
        seeds=SeedSpec(root=seed),
        execution=ExecSpec(processes=processes),
    ))
    rows = []
    for n in ns:
        bucket = recs.where(n=n)
        worst = summarize(bucket.column("max_heavy_ratio"))
        mean = summarize(bucket.column("mean_heavy_ratio"))
        rows.append(
            {
                "n": n,
                "trials": len(bucket),
                "heavy_rounds_mean": round(
                    summarize(bucket.column("heavy_rounds"))["mean"], 1
                ),
                "decay_ratio_mean": round(mean["mean"], 3),
                "decay_ratio_worst": round(worst["max"], 3),
                "paper_bound": 0.8,
                "within_bound": worst["max"] <= 0.8,
            }
        )
    meta = {"c": c, "d": d, "records": recs}
    return rows, meta


# ---------------------------------------------------------------------------
# E12 — dynamic metastability
# ---------------------------------------------------------------------------


def _dynamic_record(graph, point: Mapping, s_seed) -> dict:
    """One dynamic-arrivals run on the point's trust topology."""
    from ..dynamic import PoissonArrivals, RewireChurn, run_dynamic_saer

    res = run_dynamic_saer(
        graph,
        point["c"],
        point["d"],
        PoissonArrivals(point["rate"]),
        point["horizon"],
        churn=RewireChurn(point["churn"]) if point["churn"] else None,
        recovery=point["recovery"],
        seed=s_seed,
    )
    # rate/churn (and every other point key) reach the record via the
    # sweep's point-merge; the summary only adds the run's outcomes.
    return res.summary()


def run_e12_dynamic(
    n: int = 512,
    c: float = 2.0,
    d: int = 4,
    rates=(0.2, 0.5, 1.0, 2.0),
    horizon: int = 400,
    recovery: int = 8,
    churn_rate: float = 0.02,
    trials: int = 3,
    seed=1212,
    processes: int | None = None,
) -> tuple[list[dict], dict]:
    """E12: backlog stability vs offered load, with/without burn recovery."""
    combos = []
    for rate in rates:
        combos.append((rate, recovery, churn_rate))
    combos.append((rates[1], None, churn_rate))  # no-recovery control
    points = [
        {
            "rate": rate,
            "recovery": rec,
            "churn": ch,
            "n": n,
            "c": c,
            "d": d,
            "horizon": horizon,
            "family": "trust",
            "degree": canonical_degree(n),
        }
        for rate, rec, ch in combos
    ]
    recs = execute(RunPlan(
        grid=points,
        work=WorkSpec(record=_dynamic_record, name="e12-dynamic"),
        trials=trials,
        seeds=SeedSpec(root=seed),
        execution=ExecSpec(processes=processes),
    ))
    rows = []
    for rate, rec_param, ch in combos:
        bucket = recs.where(rate=rate, recovery=rec_param, churn=ch)
        rows.append(
            {
                "rate": rate,
                "offered_per_round": round(rate * n, 1),
                "recovery": rec_param,
                "churn": ch,
                "trials": len(bucket),
                "backlog_mean_2nd_half": round(
                    summarize(bucket.column("mean_backlog_2nd_half"))["mean"], 1
                ),
                "backlog_slope": round(
                    summarize(bucket.column("backlog_slope"))["mean"], 3
                ),
                "latency_mean": round(
                    summarize(bucket.column("latency_mean"))["mean"], 3
                ),
                "burned_frac_final": round(
                    summarize(bucket.column("burned_frac_final"))["mean"], 3
                ),
                "metastable": f"{int(bucket.column('metastable').sum())}/{len(bucket)}",
            }
        )
    meta = {"n": n, "c": c, "d": d, "horizon": horizon, "records": recs}
    return rows, meta


# ---------------------------------------------------------------------------
# S1 — the serving layer under replayed live traffic
# ---------------------------------------------------------------------------


def _s1_row(trace_kind: str, run: dict) -> dict:
    """One S1 table row from a driven loadgen run's raw tallies."""
    tally = run["tally"]
    lat = run["latencies"]
    return {
        "trace": trace_kind,
        "balls": run["submitted"],
        "assigned": tally["assigned"],
        "dropped": tally["dropped"],
        "retried": tally["retry"],
        "assign_rate": round(tally["assigned"] / run["submitted"], 4)
        if run["submitted"]
        else float("nan"),
        "latency_p50": float(np.quantile(lat, 0.5)) if lat.size else float("nan"),
        "latency_p95": float(np.quantile(lat, 0.95)) if lat.size else float("nan"),
        "rounds": run["rounds"],
        "assigned_per_s": round(tally["assigned"] / run["wall_s"], 1)
        if run["wall_s"] > 0
        else float("nan"),
    }


def run_s1_serve(
    n: int = 1024,
    c: float = 2.0,
    d: int = 4,
    rounds: int = 200,
    rate: float = 0.5,
    recovery: int = 8,
    max_wait_rounds: int = 64,
    traces=("poisson", "hotspot"),
    seed=2024,
) -> tuple[list[dict], dict]:
    """S1: replay arrival traces through the live serving stack.

    One row per trace kind (uniform Poisson and the adversarial hotspot
    skew): the in-process *driven* load generator submits each round's
    arrivals to a :class:`~repro.serve.service.SaerService`, fires the
    micro-batched round, drains, and tallies every ball's outcome.
    Because the service's round step *is* the simulator's
    (:class:`~repro.serve.state.ServingState`), the poisson row's
    latency/backlog shape matches E12's metastable regime; the hotspot
    row overloads a few hot neighborhoods, and the service's
    ``max_wait_rounds`` policy sheds the excess as ``Retry`` instead of
    queueing it forever — the request/response behaviours the offline
    simulator has no analogue for.
    """
    from ..serve import SaerService, ServeConfig, ServingState
    from ..serve.loadgen import make_arrivals, run_inprocess, sample_trace

    g_seed, t_seed, *p_seeds = np.random.SeedSequence(seed).spawn(2 + len(traces))
    graph = build_point_graph(
        {"family": "trust", "n": n, "degree": canonical_degree(n)}, g_seed
    )
    rows = []
    kernel_name = None
    for trace_kind, p_seed in zip(traces, p_seeds):
        state = ServingState(
            graph, c, d, recovery=recovery, seed=p_seed, track_tags=True
        )
        kernel_name = state.kernel_name
        service = SaerService(
            state, ServeConfig(max_batch=1 << 30, max_wait_rounds=max_wait_rounds)
        )
        trace = sample_trace(
            make_arrivals(trace_kind, rate), n, rounds, t_seed
        )
        run = run_inprocess(service, trace)
        rows.append(_s1_row(trace_kind, run))
    meta = {
        "n": n,
        "c": c,
        "d": d,
        "rate": rate,
        "recovery": recovery,
        "max_wait_rounds": max_wait_rounds,
        "kernel": kernel_name,
    }
    return rows, meta


# ---------------------------------------------------------------------------
# F1 — fault tolerance: protocol behaviour vs faulty fraction f
# ---------------------------------------------------------------------------


def _f1_record(graph, point: Mapping, s_seed) -> dict:
    """One faulted dynamic run; the schedule is rebuilt from the point's
    scalars (kind / f / start / seed) so points stay columnar-spoolable."""
    from ..dynamic import PoissonArrivals, run_dynamic_saer
    from ..faults import FaultSchedule, FaultSpec

    faults = None
    if point["f"] > 0:
        faults = FaultSchedule(
            (
                FaultSpec(
                    point["fault_kind"],
                    point["f"],
                    start=point["fault_start"],
                ),
            ),
            seed=point["fault_seed"],
        )
    res = run_dynamic_saer(
        graph,
        point["c"],
        point["d"],
        PoissonArrivals(point["rate"]),
        point["horizon"],
        recovery=point["recovery"],
        seed=s_seed,
        faults=faults,
    )
    rec = res.summary()
    stab = res.stabilization_round(after=point["fault_start"])
    rec["stabilized"] = stab is not None
    rec["stabilization_round"] = -1 if stab is None else stab
    rec["byz_absorbed"] = res.byz_absorbed
    return rec


def run_f1_faults(
    n: int = 512,
    c: float = 2.0,
    d: int = 4,
    rate: float = 0.5,
    horizon: int = 300,
    recovery: int = 8,
    fractions=(0.1, 0.2, 0.4),
    kinds=("crash", "stall", "byz_server"),
    fault_start: int | None = None,
    fault_seed: int = 11,
    trials: int = 3,
    seed=7001,
    processes: int | None = None,
) -> tuple[list[dict], dict]:
    """F1: f-tolerance sweep — dynamic SAER vs faulty participant fraction.

    A permanent fault fires at ``fault_start`` (default ``horizon // 4``,
    so a quarter of the run establishes the healthy baseline) knocking
    out / corrupting a fraction *f* of the servers; the table reports,
    per ``(kind, f)``, whether the backlog restabilizes
    (:meth:`~repro.dynamic.DynamicResult.stabilization_round`), how far
    the burned fraction climbs, and — for Byzantine servers — how many
    balls the liars silently absorbed.  ``f = 0`` is the control row and
    is *bit-identical* to a fault-free run (the fault RNG never touches
    the protocol stream).
    """
    if fault_start is None:
        fault_start = horizon // 4
    points = [
        {
            "fault_kind": "none",
            "f": 0.0,
            "fault_start": fault_start,
            "fault_seed": fault_seed,
            "rate": rate,
            "recovery": recovery,
            "n": n,
            "c": c,
            "d": d,
            "horizon": horizon,
            "family": "trust",
            "degree": canonical_degree(n),
        }
    ]
    for kind in kinds:
        for f in fractions:
            if f <= 0:
                continue
            points.append({**points[0], "fault_kind": kind, "f": f})
    recs = execute(RunPlan(
        grid=points,
        work=WorkSpec(record=_f1_record, name="f1-faults"),
        trials=trials,
        seeds=SeedSpec(root=seed),
        execution=ExecSpec(processes=processes),
    ))
    rows = []
    for point in points:
        kind, f = point["fault_kind"], point["f"]
        bucket = recs.where(fault_kind=kind, f=f)
        stab_rounds = bucket.column("stabilization_round")
        stab_rounds = stab_rounds[stab_rounds >= 0]
        rows.append(
            {
                "kind": kind,
                "f": f,
                "trials": len(bucket),
                "backlog_mean_2nd_half": round(
                    summarize(bucket.column("mean_backlog_2nd_half"))["mean"], 1
                ),
                "backlog_slope": round(
                    summarize(bucket.column("backlog_slope"))["mean"], 3
                ),
                "burned_frac_final": round(
                    summarize(bucket.column("burned_frac_final"))["mean"], 3
                ),
                "latency_p95": round(
                    summarize(bucket.column("latency_p95"))["mean"], 3
                ),
                "byz_absorbed": int(bucket.column("byz_absorbed").sum()),
                "stabilized": f"{int(bucket.column('stabilized').sum())}/{len(bucket)}",
                "stabilization_round": round(float(stab_rounds.mean()), 1)
                if stab_rounds.size
                else None,
                "metastable": f"{int(bucket.column('metastable').sum())}/{len(bucket)}",
            }
        )
    meta = {
        "n": n,
        "c": c,
        "d": d,
        "rate": rate,
        "horizon": horizon,
        "recovery": recovery,
        "fault_start": fault_start,
        "fault_seed": fault_seed,
        "records": recs,
    }
    return rows, meta
