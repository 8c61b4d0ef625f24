"""Command-line interface: run experiments and print their tables.

Usage::

    repro-lb list
    repro-lb info E4
    repro-lb run E1 [--trials 10] [--seed 7] [--processes 8] [--csv out.csv]
    repro-lb run all
    repro-lb smoke
    repro-lb serve [--n 4096 --port 7077 ...]
    repro-lb loadgen [--mode inprocess|tcp ...]

(Equivalently ``python -m repro.cli …``.)  The same runners back the
pytest-benchmark suite in ``benchmarks/``; the CLI exists for quick
interactive regeneration of a single table.

Every ``run`` flag maps 1:1 onto a :class:`repro.plan.RunPlan` axis
(``--backend``/``--kernel``/``--kernel-threads`` → ``BackendSpec``, ``--share-graph``/
``--graph-cache`` → ``GraphSpec``, ``--processes`` → ``ExecSpec``,
``--spool`` → ``ResultSpec``, ``--resume`` →
``execute(plan, resume=…)``, ``--trials``/``--seed`` → grid scale
and seed policy).  A plan the library rejects (``PlanError``, or a
``--resume`` whose journal belongs to another plan) is reported as
``error: …`` with exit status 2, like an unknown experiment.  Which axes an experiment supports comes from its
registry declaration (:attr:`repro.experiments.ExperimentSpec.capabilities`)
— not from signature probing — and an override the experiment does not
support produces a warning instead of being silently dropped.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings

from .analysis.tables import format_table, write_csv
from .batch.kernels import KERNEL_NAMES
from .errors import ExperimentError, PlanError, ResumeMismatchError
from .experiments import get_experiment, list_experiments
from .experiments import runners as runner_mod

__all__ = ["main", "run_experiment"]


def run_experiment(
    exp_id: str,
    *,
    trials: int | None = None,
    seed=None,
    processes=None,
    backend: str | None = None,
    share_graph: bool | None = None,
    graph_cache: str | None = None,
    kernel: str | None = None,
    kernel_threads: int | None = None,
    spool: str | None = None,
    resume: str | None = None,
    seed_mode: str | None = None,
):
    """Invoke the registered runner for ``exp_id``; returns (rows, meta).

    Overrides are forwarded according to the experiment's
    registry-declared plan capabilities; an override outside them (e.g.
    ``backend`` for an experiment whose semantics need traces/coupling,
    or ``share_graph`` outside fixed-topology sweeps) emits a
    :class:`UserWarning` and is not forwarded.
    """
    spec = get_experiment(exp_id)
    fn = getattr(runner_mod, spec.runner)
    kwargs = {}
    overrides = {
        "trials": trials,
        "seed": seed,
        "processes": processes,
        "backend": backend,
        "share_graph": share_graph,
        "graph_cache": graph_cache,
        "kernel": kernel,
        "kernel_threads": kernel_threads,
        "spool": spool,
        "resume": resume,
        "seed_mode": seed_mode,
    }
    for name, value in overrides.items():
        if value is None:
            continue
        if name in spec.capabilities:
            kwargs[name] = value
            continue
        if name == "kernel" and os.environ.get("REPRO_KERNELS") == value:
            # The CLI already exported the gate via REPRO_KERNELS — the
            # documented mechanism for kernel-agnostic runners (their
            # engines read it at call time) — so the override *is*
            # applied; warning "ignored" here would be wrong.
            continue
        if name == "kernel_threads" and os.environ.get(
            "REPRO_KERNEL_THREADS"
        ) == str(value):
            # Same story for the thread budget: already exported via
            # REPRO_KERNEL_THREADS for serial kernel-agnostic runners.
            continue
        warnings.warn(
            f"{spec.id} does not support the {name!r} override "
            f"(declared capabilities: {', '.join(spec.capabilities)}); ignoring it",
            UserWarning,
            stacklevel=2,
        )
    return fn(**kwargs)


def _cmd_list(_args) -> int:
    rows = [
        {"id": s.id, "title": s.title, "paper_ref": s.paper_ref, "bench": s.bench}
        for s in list_experiments()
    ]
    print(format_table(rows, title="Registered experiments"))
    return 0


def _cmd_info(args) -> int:
    spec = get_experiment(args.experiment)
    print(f"{spec.id}: {spec.title}")
    print(f"  claim:    {spec.claim}")
    print(f"  paper:    {spec.paper_ref}")
    print(f"  runner:   repro.experiments.runners.{spec.runner}")
    print(f"  bench:    {spec.bench}")
    print(f"  expected: {spec.expected_shape}")
    if spec.modules:
        print(f"  modules:  {', '.join(spec.modules)}")
    return 0


def _run_ablations(args) -> tuple[list, dict, str]:
    from .experiments.ablations import run_ablations

    kwargs = {}
    if args.trials is not None:
        kwargs["trials"] = args.trials
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.processes is not None:
        kwargs["processes"] = args.processes
    rows, meta = run_ablations(**kwargs)
    return rows, meta, "A1-A3 — design-choice ablations"


def _cmd_run(args) -> int:
    if args.kernel:
        # The engine reads the gate at call time, and forked pool
        # workers inherit the environment — one setting covers both.
        os.environ["REPRO_KERNELS"] = args.kernel
    if args.kernel_threads:
        # Serial runs read this at call time; pool workers reset it to
        # 1, so pooled threading needs the plan-level budget — which is
        # exactly what kernel-capable experiments get via
        # BackendSpec.threads below.
        os.environ["REPRO_KERNEL_THREADS"] = str(args.kernel_threads)
    target = args.experiment.lower()
    if target == "all" and (args.spool or args.resume):
        # One spool directory belongs to one plan fingerprint; spreading
        # every experiment's journal over a single dir would make each
        # one reject the others' journals.
        print(
            "error: --spool/--resume apply to a single experiment "
            "(a spool directory is keyed to one plan fingerprint)",
            file=sys.stderr,
        )
        return 2
    if target == "ablations":
        rows, meta, title = _run_ablations(args)
        print(format_table(rows, title=title))
        printable = {k: v for k, v in meta.items() if k != "records"}
        print("meta:", printable)
        if args.csv:
            write_csv(rows, args.csv)
            print(f"wrote {args.csv}")
        return 0
    ids = [s.id for s in list_experiments()] if target == "all" else [args.experiment]
    for exp_id in ids:
        spec = get_experiment(exp_id)
        rows, meta = run_experiment(
            exp_id,
            trials=args.trials,
            seed=args.seed,
            processes=args.processes,
            backend=args.backend,
            share_graph=True if args.share_graph else None,
            graph_cache=args.graph_cache,
            kernel=args.kernel,
            kernel_threads=args.kernel_threads,
            spool=args.spool,
            resume=args.resume,
            seed_mode=args.seed_mode,
        )
        print(format_table(rows, title=f"{spec.id} — {spec.title}"))
        printable = {k: v for k, v in meta.items() if k != "records"}
        if printable:
            print("meta:", printable)
        print()
        if args.csv and len(ids) == 1:
            write_csv(rows, args.csv)
            print(f"wrote {args.csv}")
    if target == "all":
        rows, meta, title = _run_ablations(args)
        print(format_table(rows, title=title))
    return 0


def _cmd_smoke(args) -> int:
    from .experiments.smoke import run_plan_smoke

    backends = tuple(b.strip() for b in args.backends.split(",") if b.strip())
    only = args.only.split(",") if args.only else None
    rows, ok = run_plan_smoke(
        backends=backends,
        processes=args.processes,
        only=only,
        spool_root=args.spool_root,
    )
    print(format_table(rows, title="Plan smoke — execute(plan) across experiments × backends"))
    if not ok:
        print("plan smoke FAILED", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # The serving-layer tools own their argument surfaces (and `serve`
    # blocks on an event loop), so they dispatch before the table
    # parser; the stub subparsers below only provide --help visibility.
    if argv and argv[0] == "serve":
        from .serve.service import main as serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "loadgen":
        from .serve.loadgen import main as loadgen_main

        return loadgen_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro-lb",
        description="Regenerate the experiment tables of the SAER reproduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list all registered experiments")
    p_info = sub.add_parser("info", help="describe one experiment")
    p_info.add_argument("experiment", help="experiment id, e.g. E4")
    p_run = sub.add_parser("run", help="run an experiment and print its table")
    p_run.add_argument("experiment", help="experiment id (E1..E12, S1, F1), 'ablations', or 'all'")
    p_run.add_argument("--trials", type=int, default=None, help="override trial count")
    p_run.add_argument("--seed", type=int, default=None, help="override root seed")
    p_run.add_argument(
        "--processes", type=int, default=None, help="worker processes (1 = serial)"
    )
    p_run.add_argument(
        "--backend",
        choices=("reference", "batched"),
        default=None,
        help="trial execution backend: per-trial reference engine, or the "
        "trial-vectorized batched engine.  NOTE: batched runs a sweep "
        "point's trials on one shared graph draw (protocol-level Monte "
        "Carlo), while reference redraws the graph per trial (joint "
        "graph x protocol estimate).  Experiments whose semantics need "
        "traces/coupling ignore this and always use the reference engine.",
    )
    p_run.add_argument(
        "--share-graph",
        action="store_true",
        help="pin one topology for the whole sweep and hand workers a "
        "zero-copy view (SharedGraph / fork inheritance) instead of "
        "rebuilding or pickling the graph per task.  Only honoured by "
        "fixed-topology sweeps (currently E6); conditions the estimate "
        "on a single graph draw.",
    )
    p_run.add_argument(
        "--kernel",
        choices=KERNEL_NAMES,
        default=None,
        help="round-kernel implementation for the batched engine: numpy "
        "reference (default) or fused C (cext).  Maps onto the plan's "
        "BackendSpec.kernel for kernel-capable experiments (travels "
        "inside the pickled worker) and sets REPRO_KERNELS for "
        "everything else.  Both are bit-identical; cext without a C "
        "compiler falls back to numpy with a warning.",
    )
    p_run.add_argument(
        "--seed-mode",
        choices=("pair", "direct"),
        default=None,
        help="how each trial's seed is used: 'pair' (default) splits "
        "it into a graph seed and a protocol seed; 'direct' hands it "
        "to the trial unsplit, which needs a pinned graph "
        "(--share-graph).  Either way the trial draws from one PCG64 "
        "stream.  Maps onto the plan's SeedSpec.mode for sweep "
        "experiments.",
    )
    p_run.add_argument(
        "--kernel-threads",
        type=int,
        default=None,
        metavar="T",
        help="trial-partitioned thread budget for the cext round "
        "kernel (OpenMP): trials are split into T chunks per round and "
        "run in parallel; numpy ignores it.  Bit-identical results "
        "at every T.  Maps onto the plan's BackendSpec.threads for "
        "kernel-capable experiments (travels inside the pickled "
        "worker, capped so threads x processes stays within the core "
        "count) and sets REPRO_KERNEL_THREADS for everything else; "
        "pool workers default to 1 to avoid oversubscription.",
    )
    p_run.add_argument(
        "--graph-cache",
        default=None,
        metavar="DIR",
        help="on-disk graph cache directory: worker-side graph builds "
        "keyed by (family, params, seed) are stored once and mapped "
        "back on every later run",
    )
    p_run.add_argument(
        "--spool",
        default=None,
        metavar="DIR",
        help="durable execution: stream each grid point's results to "
        "checksummed block files in DIR with a crash-tolerant journal "
        "(repro.durable), instead of holding the whole table in "
        "memory.  A crashed or killed run restarts from where it left "
        "off via --resume.  Needs a reproducible seed (the default or "
        "--seed).  Single experiments only, not 'all'.",
    )
    p_run.add_argument(
        "--resume",
        default=None,
        metavar="DIR",
        help="resume an interrupted --spool run from DIR: completed "
        "grid points are verified against their journaled checksums "
        "and skipped; incomplete ones re-run.  The resumed table is "
        "bit-identical to an uninterrupted run.  Errors out if the "
        "plan does not match the journal's fingerprint.",
    )
    p_run.add_argument("--csv", default=None, help="also write the table to a CSV file")
    p_smoke = sub.add_parser(
        "smoke",
        help="dry-run every registered experiment through execute(plan) at "
        "tiny scale, across every backend its capabilities declare "
        "(the CI plan-smoke job)",
    )
    p_smoke.add_argument(
        "--backends",
        default="reference,batched",
        help="comma-separated backends to exercise (default: reference,batched)",
    )
    p_smoke.add_argument(
        "--processes", type=int, default=1, help="worker processes per run (1 = serial)"
    )
    p_smoke.add_argument(
        "--only",
        default=None,
        metavar="IDS",
        help="comma-separated experiment ids to restrict to (e.g. E1,E6)",
    )
    p_smoke.add_argument(
        "--spool-root",
        default=None,
        metavar="DIR",
        help="also route spool-capable experiments through the durable "
        "on-disk sink, one subdirectory per (experiment, backend)",
    )
    sub.add_parser(
        "serve",
        help="serve live SAER assignment traffic over NDJSON/TCP "
        "(repro-lb serve --help for its options)",
    )
    sub.add_parser(
        "loadgen",
        help="replay an arrival trace against the serving layer, in-process "
        "or over TCP, and write a JSON report "
        "(repro-lb loadgen --help for its options)",
    )
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list(args)
        if args.command == "info":
            return _cmd_info(args)
        if args.command == "smoke":
            return _cmd_smoke(args)
        return _cmd_run(args)
    except (ExperimentError, PlanError, ResumeMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
