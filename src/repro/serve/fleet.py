"""Multi-process sharded serving: a fleet of :class:`SaerService` workers.

:class:`FleetService` duck-types the single-process service — same
``submit`` / ``run_round`` / ``drain`` / ``stats`` surface — but the
server set is split across ``workers`` OS processes by a
:class:`~repro.serve.router.ShardMap`.  Each worker owns a
shard-restricted :class:`~repro.serve.state.ServingState` (shard-local
server ids, all clients global) and runs the full per-shard protocol —
burn clocks, epoch recovery, health quarantine, fault injection —
while the parent only routes balls and merges outcomes.

Round protocol (lock-step, one pipe per shard)::

    parent → worker : ("round", owners, tags, want_checkpoint)
    worker → parent : ("ok", outcome_columns, info, checkpoint|None)
    parent → worker : ("metrics",)          → ("metrics", state_dict)
    parent → worker : ("stop",)             → ("stopped", state_dict)

The worker ingests a round's balls with one
:meth:`~repro.serve.service.SaerService.submit_many` call and replies
with the five numpy columns of its round's
:class:`~repro.serve.protocol.Outcomes`, re-tagged with the router's
tags — no per-ball object on either side of the pipe.  The router
exposes the same columnar surface as a single service
(``submit_many`` + :attr:`FleetService.outcomes`), so the load
generator drives either with one code path.

Every live shard gets a ``round`` message every fleet round (an empty
one when no balls landed there) so burn/heal clocks advance in step.

Accounting invariants (pinned by ``tests/test_serve_fleet.py``):

* A ball is dropped at the router iff its client is isolated in the
  *full* graph — identical to single-process ``admit_balls``.
* Shard choice is sub-degree-proportional over live shards, and the
  worker draws uniformly inside the shard, so the composed destination
  law equals the single-process uniform-over-neighborhood draw.
* ``submitted == assigned + retried + dropped`` at the fleet level;
  on a fully drained fault-free trace the totals match the
  single-process run exactly.

Failure handling: a shard that dies mid-round (crash, or a
``FaultSchedule`` SIGKILL via ``process_faults``) has all its
outstanding balls resolved as ``Retry("unavailable")``; a shard-level
:class:`~repro.faults.HealthTracker` quarantines it, the router routes
around it (dead columns zeroed before the cumulative sub-degree), and
on readmission the shard is respawned from its last pipelined
checkpoint.  Fleet metrics merge per-shard registries bucket-wise via
:func:`~repro.serve.metrics.merge_registry_states`, plus router-side
``fleet_*`` series (disjoint names — no double counting).
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import signal
from dataclasses import dataclass, field

import numpy as np

from ..errors import ServeError
from ..faults.health import HealthPolicy, HealthTracker
from ..faults.spec import FaultSchedule
from ..graphs.bipartite import BipartiteGraph
from ..parallel.shared import SharedGraph
from .metrics import MetricsRegistry, merge_registry_states
from .protocol import (
    ASSIGNED,
    DROPPED,
    OUTCOMES,
    REASON_ISOLATED,
    REASON_SHUTDOWN,
    REASON_UNAVAILABLE,
    RETRY,
    Outcomes,
)
from .router import ShardMap
from .router import choose_shards as _choose_shards
from .service import (
    BallFuture,
    SaerService,
    ServeConfig,
    ServiceFront,
    TagTable,
    as_requests,
)
from .state import ServingState

__all__ = ["FleetConfig", "FleetService", "shard_worker_main"]

#: Shard-granularity health default: one missed reply is decisive (a
#: dead process never recovers on its own), short probation.
SHARD_HEALTH = HealthPolicy(
    fail_streak=1, quarantine_rounds=16, max_quarantine_fraction=0.5
)


@dataclass(frozen=True)
class FleetConfig:
    """Topology and queue-policy knobs of :class:`FleetService`.

    ``workers`` / ``strategy`` / ``vnodes`` / ``map_seed``
        The :class:`~repro.serve.router.ShardMap` parameters (both the
        router and every worker rebuild the same map from these).
    ``tick`` / ``max_batch`` / ``max_wait_rounds``
        Same meaning as :class:`~repro.serve.service.ServeConfig`;
        ``max_wait_rounds`` is enforced inside each worker.
    ``checkpoint_every``
        Every this many fleet rounds each worker pipelines a checkpoint
        back with its reply; the latest one seeds the respawn after a
        shard quarantine (0 disables — respawns start fresh).
    ``reply_timeout``
        Seconds the router waits for a shard's round reply before
        declaring the shard failed (a dead process fails fast via EOF;
        this bounds *stalls*).
    ``shard_health``
        :class:`HealthPolicy` applied at shard granularity (one
        "server" per worker process).
    ``server_health``
        Optional per-server policy forwarded into each worker's
        :class:`~repro.serve.service.ServeConfig`.
    ``start_method``
        multiprocessing start method; ``None`` picks ``fork`` when
        available (zero-copy spec inheritance) else the default.
    """

    workers: int = 2
    strategy: str = "hash"
    vnodes: int = 64
    map_seed: int = 0
    tick: float = 0.05
    max_batch: int = 4096
    max_wait_rounds: int | None = None
    checkpoint_every: int = 32
    reply_timeout: float = 60.0
    shard_health: HealthPolicy = field(default_factory=lambda: SHARD_HEALTH)
    server_health: HealthPolicy | None = None
    start_method: str | None = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ServeError(f"workers must be >= 1; got {self.workers}")
        if self.tick <= 0:
            raise ServeError("tick must be > 0 seconds")
        if self.max_batch < 1:
            raise ServeError("max_batch must be >= 1")
        if self.max_wait_rounds is not None and self.max_wait_rounds < 1:
            raise ServeError("max_wait_rounds must be >= 1 when given")
        if self.checkpoint_every < 0:
            raise ServeError("checkpoint_every must be >= 0")
        if self.reply_timeout <= 0:
            raise ServeError("reply_timeout must be > 0 seconds")


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------


def _shard_faults(schedule, graph, smap, shard, sub):
    """Materialize ``schedule`` globally, then translate to shard-local ids.

    Member sets must be drawn over the *global* id space — every worker
    materializes the same schedule over the same sizes and keeps only
    its slice — or shard k's "5% crashed" would name different servers
    than the single-process run.  Server-kind members are filtered to
    the shard and re-indexed; client-kind members pass through (clients
    keep global ids in the subgraph).
    """
    if schedule is None:
        return None
    gmat = schedule.materialize(graph.n_clients, graph.n_servers)
    lmat = schedule.materialize(sub.n_clients, sub.n_servers)
    members = []
    for spec, m in zip(schedule.specs, gmat.members):
        if spec.is_server_kind:
            mine = m[smap.shard_of[m] == shard]
            members.append(smap.local_of[mine])
        else:
            members.append(m.copy())
    lmat.members = members
    return lmat


def shard_worker_main(conn, spec: dict) -> None:  # pragma: no cover - subprocess
    """Entry point of one shard worker (top-level for spawn picklability).

    Builds the shard-restricted service from ``spec``, then serves
    lock-step round messages on ``conn`` until ``stop`` or EOF.
    """
    graph_src = spec["graph"]
    graph = graph_src.graph if isinstance(graph_src, SharedGraph) else graph_src
    shard = spec["shard"]
    smap = ShardMap(
        graph.n_servers,
        spec["n_shards"],
        strategy=spec["strategy"],
        seed=spec["map_seed"],
        vnodes=spec["vnodes"],
    )
    sub, _members = smap.subgraph(graph, shard)
    faults = _shard_faults(spec["faults"], graph, smap, shard, sub)
    config = ServeConfig(
        max_batch=1 << 30,  # the router batches; never fire early
        max_wait_rounds=spec["max_wait_rounds"],
        health=spec["server_health"],
    )
    if spec["checkpoint"] is not None:
        service = SaerService.from_checkpoint(
            spec["checkpoint"], config, kernel=spec["kernel"]
        )
        # from_checkpoint re-materializes faults over *local* sizes,
        # drawing the wrong member sets; re-apply the translated ones.
        if service.state.faults is not None and faults is not None:
            service.state.faults.members = faults.members
    else:
        rng = np.random.Generator(np.random.Philox(spec["seed"]))
        state = ServingState(
            sub,
            spec["c"],
            spec["d"],
            recovery=spec["recovery"],
            seed=rng,
            kernel=spec["kernel"],
            track_tags=True,
            faults=faults,
        )
        service = SaerService(state, config)

    # Local tag -> router tag, for the balls this worker submitted.
    # Balls a respawned worker inherited from its checkpoint were already
    # resolved by the router as Retry("unavailable"); the table does not
    # know them, so their rows stay out of the reply.
    router_tags = TagTable(1)
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        op = msg[0]
        if op == "round":
            owners, tags, want_ckpt = msg[1], msg[2], msg[3]
            if owners.size:
                # One request per owner, in owner order: the shard's
                # queue order (and so its RNG stream) is fixed by the
                # router's batch alone.
                order = np.argsort(owners, kind="stable")
                clients, counts = np.unique(owners, return_counts=True)
                router_tags.add(service.submit_many(clients, counts), tags[order, None])
            service.run_round()
            state = service.state
            info = {
                "round": state.round_no,
                "backlog": state.backlog,
                "n_servers": state.n_servers,
                "burned": state.burned_count,
                "quarantined": state.quarantined_count,
                "assigned_total": state.assigned_total,
                "dropped": state.dropped,
                "byz_absorbed": state.byz_absorbed,
                "kernel": state.kernel_name,
            }
            ckpt = service.checkpoint() if want_ckpt else None
            rec = service.outcomes
            rows, known = router_tags.take(rec.tags)
            reply = (rows[:, 0], *(col[known] for col in rec.columns()[1:]))
            conn.send(("ok", reply, info, ckpt))
        elif op == "metrics":
            conn.send(("metrics", service.metrics.state_dict()))
        elif op == "stop":
            try:
                conn.send(("stopped", service.metrics.state_dict()))
            except (OSError, ValueError):
                pass
            break
    conn.close()


# ---------------------------------------------------------------------------
# Router / supervisor
# ---------------------------------------------------------------------------


def _default_start_method() -> str | None:
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else None


class FleetService(ServiceFront):
    """Supervisor + consistent-hash router over ``workers`` shard processes.

    Duck-types :class:`SaerService` (``submit`` / ``submit_many`` /
    ``run_round`` / ``outcomes`` / ``pending`` / ``in_flight`` /
    ``start`` / ``drain`` / ``shutdown`` / ``stats``) so the TCP front
    end and the load generator drive either interchangeably.
    Additionally offers :meth:`close` (also a context manager) — worker
    processes are real resources.
    """

    def __init__(
        self,
        graph: BipartiteGraph,
        c: float,
        d: int,
        *,
        config: FleetConfig | None = None,
        recovery: int | None = None,
        seed=None,
        kernel: str | None = None,
        faults: FaultSchedule | None = None,
        process_faults: FaultSchedule | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.config = config or FleetConfig()
        cfg = self.config
        if process_faults is not None and not process_faults.server_kinds_only:
            raise ServeError(
                "process_faults must use server kinds (crash/stall) — each "
                "'server' is one shard process"
            )
        self.n_clients = graph.n_clients
        self.n_servers = graph.n_servers
        self.workers = cfg.workers
        self.shard_map = ShardMap(
            graph.n_servers,
            cfg.workers,
            strategy=cfg.strategy,
            seed=cfg.map_seed,
            vnodes=cfg.vnodes,
        )
        self._sub_deg = self.shard_map.sub_degrees(graph)
        self._deg = self._sub_deg.sum(axis=1)
        self._live = np.ones(cfg.workers, dtype=bool)
        self._recompute_cum()

        ss = (
            seed
            if isinstance(seed, np.random.SeedSequence)
            else np.random.SeedSequence(seed)
        )
        children = ss.spawn(cfg.workers + 1)
        self._shard_seeds = children[: cfg.workers]
        self.rng = np.random.Generator(np.random.Philox(children[-1]))

        self._c = c
        self._d = d
        self._recovery = recovery
        self._kernel = kernel
        self._faults = faults
        self._pmat = (
            process_faults.materialize(0, cfg.workers)
            if process_faults is not None
            else None
        )

        self._init_front()
        # Router tags each shard holds, ascending (tags only grow).
        self._outstanding = [np.empty(0, dtype=np.int64) for _ in range(cfg.workers)]
        self._health = HealthTracker(cfg.shard_health, cfg.workers)
        self._round = 0
        self._assigned = 0
        self._dropped = 0
        self._accepting = True
        self._closed = False
        self._kick = asyncio.Event()
        self._ticker: asyncio.Task | None = None
        self._ckpts: dict[int, dict] = {}
        self._info: list[dict | None] = [None] * cfg.workers

        self.metrics = registry or MetricsRegistry()
        m = self.metrics
        self._m_requests = m.counter("fleet_requests_total", "assign requests received")
        self._m_balls = m.counter("fleet_balls_total", "balls submitted")
        self._m_assigned = m.counter("fleet_assigned_total", "balls assigned across shards")
        self._m_retried = m.counter("fleet_retried_total", "balls resolved as retry")
        self._m_dropped = m.counter("fleet_dropped_total", "balls dropped (unservable)")
        self._m_rounds = m.counter("fleet_rounds_total", "fleet rounds executed")
        self._m_unroutable = m.counter(
            "fleet_unroutable_total", "balls whose every candidate shard was down"
        )
        self._m_shard_failures = m.counter(
            "fleet_shard_failures_total", "rounds a shard failed to reply"
        )
        self._m_kills = m.counter(
            "fleet_shard_kills_total", "shard processes killed by fault injection"
        )
        self._m_q_events = m.counter(
            "fleet_quarantine_events_total", "shards sent to quarantine"
        )
        self._m_readmitted = m.counter(
            "fleet_readmitted_total", "shards readmitted after quarantine"
        )
        self._m_respawns = m.counter(
            "fleet_respawns_total", "shard processes respawned"
        )
        self._m_pending = m.gauge("fleet_pending", "balls queued for the next round")
        self._m_live = m.gauge(
            "fleet_live_shards", "shards currently live", merge="max"
        )
        self._m_live.set(cfg.workers)

        self._ctx = multiprocessing.get_context(
            cfg.start_method or _default_start_method()
        )
        self._shared: SharedGraph | None = None
        payload: BipartiteGraph | SharedGraph = graph
        if cfg.workers > 1:
            self._shared = SharedGraph.share(graph)
            payload = self._shared
        self._payload_graph = payload
        self._procs: list = [None] * cfg.workers
        self._conns: list = [None] * cfg.workers
        try:
            for k in range(cfg.workers):
                self._spawn(k)
        except BaseException:
            self.close()
            raise

    # -- process management ------------------------------------------------

    def _spawn(self, k: int, checkpoint: dict | None = None) -> None:
        cfg = self.config
        spec = {
            "shard": k,
            "n_shards": self.workers,
            "graph": self._payload_graph,
            "strategy": cfg.strategy,
            "vnodes": cfg.vnodes,
            "map_seed": cfg.map_seed,
            "c": self._c,
            "d": self._d,
            "recovery": self._recovery,
            "kernel": self._kernel,
            "max_wait_rounds": cfg.max_wait_rounds,
            "server_health": cfg.server_health,
            "seed": self._shard_seeds[k],
            "faults": self._faults,
            "checkpoint": checkpoint,
        }
        parent, child = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=shard_worker_main,
            args=(child, spec),
            daemon=True,
            name=f"repro-shard-{k}",
        )
        proc.start()
        child.close()
        self._procs[k] = proc
        self._conns[k] = parent

    def _recompute_cum(self) -> None:
        self._cum_live = np.cumsum(self._sub_deg * self._live[None, :], axis=1)

    def _recv(self, k: int):
        conn = self._conns[k]
        try:
            if not conn.poll(self.config.reply_timeout):
                return None
            return conn.recv()
        except (EOFError, OSError):
            return None

    def _fail_shard(self, k: int) -> Outcomes:
        """Resolve everything outstanding on a dead/stalled shard as
        ``Retry("unavailable")`` (late outcomes are ignored — the tags
        are no longer outstanding); returns those rows."""
        stranded = self._outstanding[k]
        self._outstanding[k] = stranded[:0]
        self._m_retried.inc(stranded.size)
        proc = self._procs[k]
        if proc is not None and proc.is_alive():
            proc.terminate()
        return Outcomes.unserved(stranded, RETRY, REASON_UNAVAILABLE)

    def _quarantine(self, k: int) -> None:
        # The only evidence against a shard is a missed reply, and
        # run_round has already failed it (balls resolved, process stopped).
        self._live[k] = False
        self._m_q_events.inc()
        proc = self._procs[k]
        if proc is not None:
            proc.join(timeout=1.0)
        conn = self._conns[k]
        if conn is not None:
            try:
                conn.close()
            except OSError:  # pragma: no cover - defensive
                pass
            self._conns[k] = None
        self._recompute_cum()

    def _readmit(self, k: int) -> None:
        self._spawn(k, checkpoint=self._ckpts.get(k))
        self._live[k] = True
        self._m_readmitted.inc()
        self._m_respawns.inc()
        self._recompute_cum()

    def _apply_process_faults(self, t: int) -> None:
        if self._pmat is None:
            return
        ov = self._pmat.server_overlay(t)
        if ov is None:
            return
        for k in ov[0].tolist():
            proc = self._procs[k]
            if proc is not None and proc.is_alive() and self._live[k]:
                try:
                    os.kill(proc.pid, signal.SIGKILL)
                    self._m_kills.inc()
                except ProcessLookupError:  # pragma: no cover - lost race
                    pass

    # -- submission --------------------------------------------------------

    def submit(self, client: int, balls: int = 1) -> list[BallFuture]:
        """Queue ``balls`` at ``client``; one future per ball."""
        return self._ball_futures(client, balls, self.n_clients)

    def submit_many(self, clients, balls) -> int:
        """Queue ``balls[i]`` at ``clients[i]`` for every i; returns the
        first tag (the call's balls hold consecutive tags)."""
        return self._ingest(*as_requests(clients, balls, self.n_clients))[0]

    def _ingest(self, clients, balls, total: int) -> tuple[int, Outcomes | None]:
        self._m_requests.inc(clients.size)
        self._m_balls.inc(total)
        first = self._next_tag
        self._next_tag = first + total
        tags = np.arange(first, first + total)
        if not self._accepting or self._closed:
            self._m_retried.inc(total)
            rejected = Outcomes.unserved(tags, RETRY, REASON_SHUTDOWN)
            self._rejected.append(rejected)
            return first, rejected
        if total:
            self._queue(np.repeat(clients, balls), tags)
        if self._n_pending >= self.config.max_batch:
            self._kick.set()
        return first, None

    # -- the fleet round ---------------------------------------------------

    def run_round(self) -> int:
        """Route the queued batch, advance every live shard one round.

        Returns balls assigned this round (across all shards); what the
        round resolved lands in :attr:`outcomes`, in the order: router
        drops, unroutable balls, each live shard's record, then the
        balls of shards that failed to reply.
        """
        if self._closed:
            raise ServeError("FleetService is closed")
        t = self._round
        self._round += 1
        self._apply_process_faults(t)
        parts, self._rejected = self._rejected, []
        n_rejected = sum(len(p) for p in parts)
        owners, tags = self._take_pending()

        # Router-side drop: isolated in the FULL graph — same rule as
        # single-process admit_balls, independent of shard liveness.
        if owners.size:
            isolated = self._deg[owners] == 0
            if isolated.any():
                n_iso = int(isolated.sum())
                self._m_dropped.inc(n_iso)
                self._dropped += n_iso
                parts.append(Outcomes.unserved(tags[isolated], DROPPED, REASON_ISOLATED))
                owners = owners[~isolated]
                tags = tags[~isolated]

        shard = np.empty(0, dtype=np.int64)
        if owners.size:
            u = self.rng.random(owners.size)
            shard = _choose_shards(owners, u, self._cum_live)
            unroutable = shard >= self.workers
            if unroutable.any():
                n_u = int(unroutable.sum())
                self._m_retried.inc(n_u)
                self._m_unroutable.inc(n_u)
                parts.append(
                    Outcomes.unserved(tags[unroutable], RETRY, REASON_UNAVAILABLE)
                )
                keep = ~unroutable
                owners = owners[keep]
                tags = tags[keep]
                shard = shard[keep]

        every = self.config.checkpoint_every
        want_ckpt = bool(every) and (t + 1) % every == 0
        live_idx = np.flatnonzero(self._live).tolist()
        sent_ok = np.zeros(self.workers, dtype=bool)
        replied = np.zeros(self.workers, dtype=bool)
        for k in live_idx:
            mask = shard == k
            k_tags = tags[mask]
            # Outstanding first, so a failed send retries these balls.
            self._outstanding[k] = np.concatenate([self._outstanding[k], k_tags])
            try:
                self._conns[k].send(("round", owners[mask], k_tags, want_ckpt))
            except (OSError, ValueError, BrokenPipeError):
                continue
            sent_ok[k] = True

        assigned = 0
        for k in live_idx:
            if not sent_ok[k]:
                continue
            reply = self._recv(k)
            if reply is None:
                continue
            _op, columns, info, ckpt = reply
            replied[k] = True
            self._info[k] = info
            if ckpt is not None:
                self._ckpts[k] = ckpt
            rec = self._settle(k, Outcomes(*columns))
            n = np.bincount(rec.outcome, minlength=len(OUTCOMES))
            assigned += int(n[ASSIGNED])
            self._m_retried.inc(int(n[RETRY]))
            self._m_dropped.inc(int(n[DROPPED]))
            self._dropped += int(n[DROPPED])
            parts.append(rec)

        self._assigned += assigned
        if assigned:
            self._m_assigned.inc(assigned)

        for k in live_idx:
            if not replied[k]:
                self._m_shard_failures.inc()
                parts.append(self._fail_shard(k))
        record = Outcomes.concat(parts)
        self._in_flight -= len(record) - n_rejected
        self._publish(record)

        # Shard-granularity health: every live shard we messaged is one
        # unit of evidence; a reply is an accept.
        received = np.zeros(self.workers, dtype=np.int64)
        received[np.flatnonzero(self._live)] = 1
        to_q, to_r = self._health.observe(received, replied.astype(np.int64))
        for k in to_q.tolist():
            self._quarantine(k)
        for k in to_r.tolist():
            self._readmit(k)

        self._m_rounds.inc()
        self._m_pending.set(self.pending)
        self._m_live.set(int(self._live.sum()))
        return assigned

    def _settle(self, k: int, rec: Outcomes) -> Outcomes:
        """Shard ``k``'s reply rows whose tags are still outstanding
        there (a reply that arrives after the shard was failed is
        stale); those tags stop being outstanding."""
        held = self._outstanding[k]
        at = np.searchsorted(held, rec.tags)
        known = at < held.size
        known[known] = held[at[known]] == rec.tags[known]
        if not known.all():
            rec, at = rec[known], at[known]
        keep = np.ones(held.size, dtype=bool)
        keep[at] = False
        self._outstanding[k] = held[keep]
        return rec

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Start the tick loop (idempotent)."""
        if self._ticker is None or self._ticker.done():
            self._accepting = True
            self._ticker = asyncio.get_running_loop().create_task(self._tick_loop())

    async def _tick_loop(self) -> None:
        while self._accepting:
            try:
                await asyncio.wait_for(self._kick.wait(), timeout=self.config.tick)
            except asyncio.TimeoutError:
                pass
            self._kick.clear()
            if not self._accepting:
                break
            self.run_round()

    async def drain(self, max_rounds: int = 10_000) -> int:
        """Run rounds back-to-back until no ball is in flight."""
        rounds = 0
        while self._in_flight and rounds < max_rounds:
            self.run_round()
            rounds += 1
            if rounds % 64 == 0:
                await asyncio.sleep(0)
        return rounds

    async def shutdown(self, final_rounds: int = 0) -> None:
        """Stop ticking, optionally run extra rounds, then close the fleet."""
        self._accepting = False
        self._kick.set()
        if self._ticker is not None:
            try:
                await self._ticker
            except asyncio.CancelledError:  # pragma: no cover - defensive
                pass
            self._ticker = None
        for _ in range(final_rounds):
            if not self._in_flight:
                break
            self.run_round()
        self.close()

    def close(self) -> None:
        """Stop workers, resolve leftovers as ``Retry("shutdown")``, free
        the shared graph.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        self._accepting = False
        rejected, self._rejected = self._rejected, []
        leftovers = np.sort(np.concatenate([self._take_pending()[1], *self._outstanding]))
        self._outstanding = [leftovers[:0] for _ in range(self.workers)]
        self._m_retried.inc(leftovers.size)
        self._in_flight = 0
        self._publish(
            Outcomes.concat(
                [*rejected, Outcomes.unserved(leftovers, RETRY, REASON_SHUTDOWN)]
            )
        )
        for k in range(self.workers):
            conn = self._conns[k]
            proc = self._procs[k]
            if (
                conn is not None
                and proc is not None
                and self._live[k]
                and proc.is_alive()
            ):
                try:
                    conn.send(("stop",))
                except (OSError, ValueError, BrokenPipeError):
                    pass
            if proc is not None:
                proc.join(timeout=2.0)
                if proc.is_alive():  # pragma: no cover - stuck worker
                    proc.terminate()
                    proc.join(timeout=2.0)
                self._procs[k] = None
            if conn is not None:
                try:
                    conn.close()
                except OSError:  # pragma: no cover - defensive
                    pass
                self._conns[k] = None
        if self._shared is not None:
            self._shared.unlink()
            self._shared = None

    def __enter__(self) -> "FleetService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC timing
        try:
            self.close()
        except Exception:
            pass

    # -- observability -----------------------------------------------------

    def fleet_metrics(self) -> MetricsRegistry:
        """Merged view: every live shard's registry + the router's own.

        Counters sum, gauges follow their declared merge semantics,
        histograms merge bucket-wise — see
        :func:`~repro.serve.metrics.merge_registry_states`.
        """
        states = []
        if not self._closed:
            for k in np.flatnonzero(self._live).tolist():
                conn = self._conns[k]
                try:
                    conn.send(("metrics",))
                    if conn.poll(self.config.reply_timeout):
                        msg = conn.recv()
                        if msg and msg[0] == "metrics":
                            states.append(msg[1])
                except (OSError, EOFError, ValueError, BrokenPipeError):
                    continue
        merged = merge_registry_states(states)
        merged.merge_state(self.metrics.state_dict())
        return merged

    def stats(self) -> dict:
        """One-shot fleet snapshot (same shape as ``SaerService.stats``
        plus ``workers`` / shard fields)."""
        infos = [i for i in self._info if i]
        backlog = sum(i["backlog"] for i in infos)
        burned = sum(i["burned"] for i in infos)
        quarantined = sum(i["quarantined"] for i in infos)
        shard_servers = sum(i["n_servers"] for i in infos)
        merged = self.fleet_metrics()
        return {
            "round": self._round,
            "backlog": backlog,
            "pending": self.pending,
            "in_flight": self.in_flight,
            "burned_fraction": burned / shard_servers if shard_servers else 0.0,
            "quarantined": quarantined,
            "quarantined_shards": int(self.workers - self._live.sum()),
            "live_shards": int(self._live.sum()),
            "dropped_total": self._dropped,
            "assigned_total": self._assigned,
            "byz_absorbed": sum(i["byz_absorbed"] for i in infos),
            "n_clients": self.n_clients,
            "n_servers": self.n_servers,
            "workers": self.workers,
            "kernel": infos[0]["kernel"] if infos else None,
            "metrics": merged.snapshot(),
        }
