"""The benchmark's four workloads, their output checks and their trace targets.

Each workload drives one public entry point a user runs, in one process
on one thread: the compiled ``cext`` round kernel with one kernel
thread, PCG64 ``pair`` seeds, ``processes=1``.

* ``sweep-e1`` — the E1 registry runner on E1's grid of n, batched,
  through a fresh durable spool directory (graph build dominates).
* ``sweep-e6`` — the E6 registry runner on E6's c grid with one shared
  graph and the in-memory sink (the batched engine dominates).
* ``serve-poisson`` — a pre-sampled Poisson trace replayed by the
  loadgen's driven mode against ``SaerService`` (per-ball serving).
* ``serve-hotspot`` — the same service with ``max_wait_rounds`` and
  client retries, replaying a hotspot trace (the retry loop, evictions,
  skewed owners).

The workload seed picks one of ``SEED_SPACE`` input sets; the graph,
trace, protocol and retry seeds derive from it.  ``digests.json`` pins
the output digest of every input set, so each run checks that the
program's outputs are exactly the ones recorded.
"""

from __future__ import annotations

import hashlib
import json
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracer import Target

#: Input sets per workload; a workload seed selects ``seed % SEED_SPACE``.
#: Seed 0 is the default; seed 17 is held out for re-checking claims.
SEED_SPACE = 32

E1_NS = (256, 512, 1024, 2048, 4096)
E1_TRIALS = 32
E6_N = 2048
E6_TRIALS = 64
SERVE_N = 8192
SERVE_RATE = 0.4

#: What every sweep call pins explicitly (nothing comes from the environment).
SWEEP_PINS = dict(
    processes=1, backend="batched", kernel="cext", kernel_threads=1, seed_mode="pair"
)


def derive(workload: str, seed: int, n: int) -> list[int]:
    """``n`` seeds for ``workload``'s input set selected by ``seed``."""
    ss = np.random.SeedSequence([zlib.crc32(workload.encode()), seed % SEED_SPACE])
    return [int(x) for x in ss.generate_state(n)]


def _json_default(obj):
    if hasattr(obj, "item"):
        return obj.item()
    raise TypeError(f"not JSON serialisable: {type(obj).__name__}")


def _sha(payload: dict, arrays=()) -> str:
    h = hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=_json_default).encode()
    )
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


@dataclass
class Outcome:
    """What one timed operation produced, as the benchmark judges it."""

    digest: str
    attempted: int  # trials (sweeps) or logical balls (serve)
    failed: int
    items: int  # completed trials (sweeps) or assigned balls (serve)
    assign_rounds: np.ndarray  # rounds until assignment, one per trial or ball
    problems: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


class Sweep:
    """One registry runner call over a grid, batched on the cext kernel."""

    kind = "sweep"

    def __init__(self, name: str, exp_id: str, params: dict, key: str, spool: bool):
        self.name = name
        self.exp_id = exp_id
        self.params = params
        self.key = key  # the grid column that tells points apart
        self.spool = spool

    def setup(self, seed: int, scratch: Path) -> None:
        from repro.experiments import get_experiment, runners

        self.runners = runners
        self.runner_name = get_experiment(self.exp_id).runner
        (root,) = derive(self.name, seed, 1)
        self.kwargs = dict(self.params, seed=root, **SWEEP_PINS)
        if self.spool:
            # A fresh directory per call: a reused one turns it into a resume.
            self.kwargs["spool"] = str(scratch / "spool")

    def run(self):
        runner = getattr(self.runners, self.runner_name)
        return runner(**self.kwargs)

    def outcome(self, out) -> Outcome:
        rows, meta = out
        table = meta["records"]
        ok = np.ones(len(table), dtype=bool)
        if "failed" in table.fields:
            # A quarantined grid point leaves one failure row for all its trials.
            ok = np.asarray(table.column("failed")) != True  # noqa: E712
        failed = int(np.count_nonzero(~ok)) * self.params["trials"]
        key = np.asarray(table.column(self.key))[ok].astype(np.float64)
        trial, rounds, work, max_load = (
            np.asarray(table.column(c))[ok].astype(np.int64)
            for c in ("trial", "rounds", "work", "max_load")
        )
        return Outcome(
            digest=_sha({"rows": rows}, [key, trial, rounds, work, max_load]),
            attempted=int(np.count_nonzero(ok)) + failed,
            failed=failed,
            items=int(np.count_nonzero(ok)),
            assign_rounds=rounds,
        )


# ---------------------------------------------------------------------------
# Serving replays
# ---------------------------------------------------------------------------


class Replay:
    """A pre-sampled trace replayed in the loadgen's driven mode.

    Closed loop, one caller: round t+1's arrivals are submitted only
    after round t returns, so the trace fixes the offered load per round.
    """

    kind = "serve"

    def __init__(self, name: str, arrivals: str, rounds: int, max_wait_rounds=None,
                 retry_attempts=None):
        self.name = name
        self.arrivals = arrivals
        self.rounds = rounds
        self.max_wait_rounds = max_wait_rounds
        self.retry_attempts = retry_attempts

    def setup(self, seed: int, scratch: Path) -> None:
        from repro.graphs.families import build_point_graph
        from repro.serve import loadgen
        from repro.serve.service import SaerService, ServeConfig
        from repro.serve.state import ServingState

        g_seed, t_seed, p_seed, r_seed = derive(self.name, seed, 4)
        graph = build_point_graph({"family": "trust", "n": SERVE_N}, g_seed)
        state = ServingState(
            graph, 2.0, 4, recovery=8, seed=p_seed, kernel="cext", track_tags=True
        )
        # The driven loop never ticks, so no batch size fires a round early.
        config = ServeConfig(max_batch=1 << 30, max_wait_rounds=self.max_wait_rounds)
        self.service = SaerService(state, config)
        self.trace = loadgen.sample_trace(
            loadgen.make_arrivals(self.arrivals, SERVE_RATE),
            graph.n_clients,
            self.rounds,
            t_seed,
        )
        self.retry = None
        if self.retry_attempts is not None:
            self.retry = loadgen.RetryPolicy(max_attempts=self.retry_attempts, seed=r_seed)
        self.loadgen = loadgen

    def run(self):
        return self.loadgen.run_inprocess(self.service, self.trace, retry=self.retry)

    def outcome(self, run) -> Outcome:
        tally = run["tally"]
        stats = run["stats"]
        lat = run["latencies"]
        lat_total = run["latencies_with_retries"] if self.retry is not None else lat
        problems = []
        if tally["unresolved"]:
            problems.append(f"{tally['unresolved']} futures unresolved")
        if stats["assigned_total"] != tally["assigned"]:
            problems.append(
                f"service assigned_total {stats['assigned_total']} != "
                f"tally {tally['assigned']}"
            )
        if stats["kernel"] != "cext":
            problems.append(f"round kernel gate is {stats['kernel']!r}, not 'cext'")
        payload = {
            "tally": tally,
            "submitted": run["submitted"],
            "resubmitted": run["resubmitted"],
            "lost": run["lost"],
            "assigned_total": stats["assigned_total"],
            "rounds": run["rounds"],
            "latency_hist": np.bincount(lat).tolist() if lat.size else [],
            "latency_total_hist": np.bincount(lat_total).tolist() if lat_total.size else [],
        }
        return Outcome(
            digest=_sha(payload),
            attempted=run["submitted"],
            failed=run["submitted"] - tally["assigned"],
            items=tally["assigned"],
            assign_rounds=lat_total,
            problems=problems,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Sweep("sweep-e1", "E1", dict(ns=E1_NS, c=1.5, d=4, trials=E1_TRIALS), "n", spool=True),
        Sweep(
            "sweep-e6", "E6", dict(n=E6_N, d=4, trials=E6_TRIALS, share_graph=True),
            "c", spool=False,
        ),
        Replay("serve-poisson", "poisson", rounds=100),
        Replay("serve-hotspot", "hotspot", rounds=100, max_wait_rounds=8, retry_attempts=6),
    )
}


# ---------------------------------------------------------------------------
# Trace targets: the public names whose calls the traced run records
# ---------------------------------------------------------------------------


def _count(key, of=lambda result, args, kwargs: 1):
    def hook(tracer, result, args, kwargs):
        tracer.counts[key] += of(result, args, kwargs)

    return hook


def _graph_built(tracer, graph, args, kwargs):
    tracer.counts["graphs.edges"] += graph.n_edges


def _batch_done(tracer, res, args, kwargs):
    tracer.counts["batch.trial_rounds"] += int(res.rounds.sum())
    tracer.counts["batch.work"] += int(res.work.sum())


def _block_written(tracer, result, args, kwargs):
    spool_dir = args[0] if args else kwargs["spool_dir"]
    tracer.counts["durable.block_bytes"] += os.path.getsize(Path(spool_dir) / result[0])


def _routed(tracer, out, args, kwargs):
    tracer.counts["serve.state.routed_balls"] += out.assigned + out.backlog
    tracer.counts["serve.state.assigned"] += out.assigned


def _replayed(tracer, run, args, kwargs):
    tracer.counts["serve.loadgen.resubmitted"] += run["resubmitted"]
    tracer.counts["serve.loadgen.lost"] += run["lost"]


class _TracedKernel:
    """A resolved round kernel whose round callables report as leaves."""

    def __init__(self, kernel, tracer):
        self._kernel = kernel
        self._tracer = tracer

    def __getattr__(self, attr):
        value = getattr(self._kernel, attr)
        if not attr.endswith("round_fn"):
            return value

        def make(*args, **kwargs):
            fn = value(*args, **kwargs)
            return None if fn is None else self._tracer.leaf(fn, "batch.kernel", "batch")

        return make


def _adapt_resolve_kernel(tracer, resolve_kernel):
    def traced_resolve_kernel(*args, **kwargs):
        return _TracedKernel(resolve_kernel(*args, **kwargs), tracer)

    return traced_resolve_kernel


def _adapt_add_done_callback(tracer, add_done_callback):
    # Done callbacks are the loadgen's tally code running inside run_round.
    def traced_add_done_callback(self, cb):
        leaf = tracer.leaf_call(cb, "serve.loadgen.callback", "serve.loadgen")
        return add_done_callback(self, leaf)

    return traced_add_done_callback


SWEEP_TARGETS = [
    Target("repro.plan:execute", "plan.execute", "plan"),
    Target("repro.plan:BatchWorker.__call__", "plan.worker", "plan"),
    Target("repro.parallel.sweep:run_sweep", "parallel.dispatch", "parallel"),
    Target("repro.parallel.pool:map_parallel", "parallel.dispatch", "parallel"),
    Target("repro.parallel.aggregate:assemble_blocks", "parallel.assemble", "parallel"),
    Target("repro.parallel.aggregate:ResultTable.from_blocks", "parallel.assemble", "parallel"),
    Target("repro.durable.supervisor:supervised_map", "durable.supervise", "durable"),
    Target("repro.durable.spool:write_block", "durable.block_write", "durable",
           hook=_block_written),
    Target("repro.durable.journal:JournalWriter.append", "durable.journal", "durable"),
    Target("repro.durable.journal:read_journal", "durable.read", "durable"),
    Target("repro.durable.spool:SpoolReader.table", "durable.read", "durable"),
    Target("repro.rng:spawn_seeds", "rng.spawn", "rng",
           hook=_count("rng.seeds", lambda r, a, k: len(r))),
    Target("repro.rng:make_rng", "rng.spawn", "rng", kind="leaf"),
    Target("repro.graphs.properties:degree_report", "graphs.report", "graphs"),
    Target("repro.batch.engine:run_trials_batched", "batch.engine", "batch", hook=_batch_done),
    Target("repro.batch.kernels:resolve_kernel", "batch.kernel", "batch",
           adapt=_adapt_resolve_kernel),
]

SERVE_TARGETS = [
    Target("repro.serve.loadgen:run_inprocess", "serve.loadgen", "serve.loadgen",
           hook=_replayed),
    Target("repro.serve.service:BallFuture.add_done_callback", "serve.loadgen.callback",
           "serve.loadgen", adapt=_adapt_add_done_callback),
    Target("repro.serve.service:SaerService.submit", "serve.service.submit",
           "serve.service", kind="leaf",
           hook=_count("serve.service.balls", lambda r, a, k: len(r))),
    Target("repro.serve.service:SaerService.run_round", "serve.service.round",
           "serve.service"),
    Target("repro.serve.state:ServingState.round_begin", "serve.state.begin", "serve.state"),
    Target("repro.serve.state:ServingState.admit_balls", "serve.state.admit", "serve.state"),
    Target("repro.serve.state:ServingState.route", "serve.state.route", "serve.state",
           hook=_routed),
    Target("repro.serve.state:ServingState.evict_overdue", "serve.state.evict",
           "serve.state", hook=_count("serve.state.evicted", lambda r, a, k: len(r[1]))),
    Target("repro.serve.metrics:Histogram.observe", "serve.metrics.observe",
           "serve.metrics", kind="leaf", hook=_count("serve.metrics.observes")),
    Target("repro.serve.metrics:Histogram.observe_many", "serve.metrics.observe",
           "serve.metrics", kind="leaf",
           hook=_count("serve.metrics.observes", lambda r, a, k: len(a[1]))),
    Target("repro.batch.kernels:resolve_kernel", "batch.kernel", "batch",
           adapt=_adapt_resolve_kernel),
]

#: Both kinds build graphs: in the operation (sweeps) or at set-up (serve).
GRAPH_TARGET = Target(
    "repro.graphs.families:build_point_graph", "graphs.build", "graphs",
    hook=_graph_built,
)


def trace_targets(workload) -> list[Target]:
    """Every name the traced run wraps for ``workload``."""
    if workload.kind == "serve":
        return [GRAPH_TARGET, *SERVE_TARGETS]
    from repro.experiments import get_experiment

    runner = get_experiment(workload.exp_id).runner
    return [
        Target(f"repro.experiments.runners:{runner}", "experiments.runner", "experiments"),
        GRAPH_TARGET,
        *SWEEP_TARGETS,
    ]
