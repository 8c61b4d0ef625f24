"""Open-loop load generator for the serving layer (``repro-lb loadgen``).

Replays an arrival trace against a :class:`~repro.serve.service.SaerService`
and reports what came back.  The trace is sampled up front from the
same :class:`~repro.dynamic.arrivals.ArrivalProcess` vocabulary the
offline simulator uses (``poisson`` / ``burst``) plus the adversarial
``hotspot`` trace (a few hot clients absorb most of the arrival mass),
from a dedicated trace RNG — so the *offered* load is identical across
modes, kernels, and processes, and only the protocol RNG differs.

Three modes:

``inprocess``
    Drives a service in the same process with **no ticker and no
    sleeps**: submit one round's arrivals as one
    :meth:`~repro.serve.service.SaerService.submit_many` call, call the
    synchronous :meth:`~repro.serve.service.SaerService.run_round`
    directly, tally the round's
    :class:`~repro.serve.protocol.Outcomes` record, repeat, then drain.
    No per-ball object is made, so this measures the serving stack's
    own per-round cost (ingest + micro-batch + kernel + resolution) at
    full speed.  The repository's throughput figures come from
    ``perfbench`` (the ``serve-poisson`` and ``serve-hotspot``
    workloads), which drives this mode.  ``--check-conservation``
    gates on the accounting identity (every submitted ball resolves
    exactly once).
``tcp``
    Open-loop NDJSON client against a running ``repro-lb serve``:
    writes each round's requests, sleeps one tick, never waits for
    responses (a reader task collects them concurrently).  Measures the
    wire path end to end.
``chaos``
    Boots its *own* TCP service in-process with a
    :class:`~repro.faults.FaultSchedule` (``--fault-kind`` /
    ``--fault-fraction`` / ``--fault-start``) plus the self-healing
    loop (``--health-streak`` quarantine, ``--brownout-threshold``
    shedding), then replays the trace over real TCP with client-side
    retries — faults land mid-replay, and the report shows whether
    backoff + quarantine recovered the assignment rate.

Client-side retries (:class:`RetryPolicy`, ``--retry``) resubmit balls
that come back ``Retry(timeout/backpressure/brownout)`` after a capped
exponential backoff with full jitter; the report then separates
first-attempt latency from end-to-end latency *including* retries, and
``--max-retry-rate`` / ``--max-p99-retries`` / ``--max-lost`` gate on
them.

The JSON report lands at ``--out`` (``BENCH_serve.json`` by default;
the repository ignores that name, so a run cannot commit a stale
record); ``--min-assign-rate`` and ``--max-p95`` turn it into a
pass/fail gate for CI's serve-smoke job.
"""

from __future__ import annotations

import argparse
import json
import math
import time
from dataclasses import dataclass

import numpy as np

from ..batch.kernels import KERNEL_NAMES
from ..dynamic.arrivals import (
    ArrivalProcess,
    BatchArrivals,
    HotspotArrivals,
    PoissonArrivals,
)
from ..dynamic.churn import RewireChurn
from ..errors import ServeError
from ..faults import FaultSchedule, FaultSpec, HealthPolicy
from ..graphs.families import build_point_graph
from ..rng import make_rng
from .protocol import ASSIGNED, OUTCOMES, REASONS, RETRY, decode_response, encode_response
from .service import SaerService, ServeConfig, TagTable, serve_tcp
from .state import ServingState

__all__ = [
    "RetryPolicy",
    "make_arrivals",
    "sample_trace",
    "run_inprocess",
    "run_tcp",
    "run_chaos",
    "build_report",
    "check_report",
    "main",
]


@dataclass(frozen=True)
class RetryPolicy:
    """Client-side retry: capped exponential backoff with full jitter.

    A ball resolved as ``Retry`` is resubmitted after
    ``uniform(0, min(cap, base·2^attempt))`` rounds (at least 1), up to
    ``max_attempts`` total submissions; after that the ball counts as
    *lost*.  Jitter draws come from the policy's own seeded RNG so a
    replay is reproducible and never perturbs the trace or protocol
    streams.  In TCP modes a "round" of delay is one client tick.
    """

    max_attempts: int = 4
    base_delay: float = 1.0
    max_delay: float = 16.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ServeError("max_attempts must be >= 1")
        if self.base_delay <= 0:
            raise ServeError("base_delay must be > 0 rounds")
        if self.max_delay < self.base_delay:
            raise ServeError("max_delay must be >= base_delay")

    def make_rng(self) -> np.random.Generator:
        return make_rng(self.seed)

    def delay_rounds(self, attempt: int, rng: np.random.Generator) -> int:
        """Backoff before submission ``attempt + 1`` (attempt is 0-based)."""
        ceiling = min(self.max_delay, self.base_delay * (2.0 ** attempt))
        return max(1, math.ceil(float(rng.uniform(0.0, ceiling))))


def make_arrivals(
    kind: str,
    rate: float,
    *,
    batch_size: int = 64,
    period: int = 1,
    hot_fraction: float = 0.01,
    hot_weight: float = 0.9,
) -> ArrivalProcess:
    """The named trace family, with the loadgen's knobs applied."""
    if kind == "poisson":
        return PoissonArrivals(rate)
    if kind == "burst":
        return BatchArrivals(batch_size, period)
    if kind == "hotspot":
        return HotspotArrivals(rate, hot_fraction, hot_weight)
    raise ValueError(f"unknown trace kind {kind!r} (poisson/burst/hotspot)")


def sample_trace(
    arrivals: ArrivalProcess, n_clients: int, rounds: int, seed
) -> list[np.ndarray]:
    """Pre-sample per-round per-client arrival counts from a trace RNG.

    Separate from the service's protocol RNG on purpose: the offered
    load is then a fixed replayable artifact, and reruns vary only the
    protocol's coin flips.
    """
    rng = make_rng(seed)
    return [arrivals.sample(rng, n_clients, t) for t in range(rounds)]


# ---------------------------------------------------------------------------
# In-process driven mode
# ---------------------------------------------------------------------------


def run_inprocess(
    service: SaerService,
    trace: list[np.ndarray],
    drain_rounds: int = 2000,
    retry: RetryPolicy | None = None,
) -> dict:
    """Replay ``trace`` at full speed (one round per trace entry, no
    sleeps), drain, and tally every ball's outcome.

    Each round submits its arrivals with one
    :meth:`~repro.serve.service.SaerService.submit_many` call and reads
    back the round's :class:`~repro.serve.protocol.Outcomes` record, so
    no per-ball object is made.  With a :class:`RetryPolicy`, balls that
    come back ``Retry`` are resubmitted after a jittered backoff measured
    in *rounds* (the driven loop has no wall clock), drawn in the order
    the balls resolved; ``tally["retry"]`` then counts only balls that
    exhausted every attempt (= ``lost``).  The replay must be the
    service's only submitter while it runs; balls already in flight
    when it starts are left out of the tally.
    """
    replay = _Replay(service, retry, sum(int(counts.sum()) for counts in trace))
    t0 = time.perf_counter()
    for counts in trace:
        replay.step(counts)
    extra = 0
    while (service.in_flight or replay.backlog) and extra < drain_rounds:
        replay.step(None)
        extra += 1
    wall = time.perf_counter() - t0
    return {
        "wall_s": wall,
        "rounds": len(trace) + extra,
        "drain_rounds": extra,
        **replay.report(),
        "stats": service.stats(),
    }


class _Replay:
    """The driven loop's columnar bookkeeping.

    Outcome codes are tallied with ``np.bincount``.  With a retry
    policy, a :class:`~repro.serve.service.TagTable` keeps each
    unresolved ball's (client, attempt, birth round), and the backlog
    maps a due round to the arrays of balls to resubmit then, in the
    order they resolved.  Each of the trace's ``balls`` logical balls
    is assigned at most once, so that many slots hold every latency.
    """

    def __init__(self, service, retry: RetryPolicy | None, balls: int) -> None:
        self.service = service
        self.retry = retry
        self.rng = retry.make_rng() if retry is not None else None
        self.round = 0
        self.first_tag: int | None = None  # rows below it are other callers'
        self.ledger = TagTable(3) if retry is not None else None  # client, attempt, birth
        self.backlog: dict[int, list[np.ndarray]] = {}
        self.tally = np.zeros(len(OUTCOMES), dtype=np.int64)  # balls per outcome code
        self.submitted = self.resubmitted = self.lost = 0
        self.retry_reasons: dict[str, int] = {}
        self.n_assigned = 0  # latency slots filled
        self.latencies = np.empty(balls, dtype=np.int64)
        self.latencies_total = np.empty(balls if retry is not None else 0, dtype=np.int64)

    def step(self, counts: np.ndarray | None) -> None:
        clients = np.flatnonzero(counts) if counts is not None else _NO_BALLS
        balls = counts[clients] if counts is not None else _NO_BALLS
        self.submitted += int(balls.sum())
        entries = np.zeros((clients.size, 3), dtype=np.int64)
        entries[:, 0] = clients
        entries[:, 2] = self.round
        due = self.backlog.pop(self.round, None)
        if due is not None:
            # Resubmissions go first, one ball per request.
            resub = np.concatenate(due)
            self.resubmitted += len(resub)
            entries = np.concatenate([resub, entries])
            balls = np.concatenate([np.ones(len(resub), dtype=np.int64), balls])
        if len(entries):
            first = self.service.submit_many(entries[:, 0], balls)
            if self.first_tag is None:
                self.first_tag = first
            if self.ledger is not None:
                self.ledger.add(first, np.repeat(entries, balls, axis=0))
        self.service.run_round()
        self._collect(self.service.outcomes)
        self.round += 1

    def _collect(self, rec) -> None:
        if not len(rec) or self.first_tag is None:
            return
        mine = rec.tags >= self.first_tag
        if not mine.all():
            rec = rec[mine]
        code = rec.outcome
        self.tally += np.bincount(code, minlength=len(OUTCOMES))
        assigned = code == ASSIGNED
        retried = code == RETRY
        if self.ledger is not None:
            balls = self.ledger.take(rec.tags)[0]
        if assigned.any():
            lo = self.n_assigned
            self.n_assigned += int(np.count_nonzero(assigned))
            self.latencies[lo : self.n_assigned] = rec.latency_rounds[assigned]
            if self.ledger is not None:
                births = balls[assigned, 2]
                np.maximum(0, self.round - births, out=self.latencies_total[lo : self.n_assigned])
        if retried.any():
            reasons, first_seen, n = np.unique(
                rec.reason[retried], return_index=True, return_counts=True
            )
            for j in np.argsort(first_seen).tolist():
                name = REASONS[reasons[j]]
                self.retry_reasons[name] = self.retry_reasons.get(name, 0) + int(n[j])
            if self.ledger is not None:
                self._back_off(balls[retried])

    def _back_off(self, balls: np.ndarray) -> None:
        """Schedule each retried ball's next attempt, or count it lost."""
        policy = self.retry
        spent = balls[:, 1] + 1 >= policy.max_attempts
        self.lost += int(np.count_nonzero(spent))
        balls = balls[~spent]
        if not len(balls):
            return
        # One draw per ball, in resolution order: the same doubles as
        # RetryPolicy.delay_rounds called ball by ball.
        ceilings = np.minimum(policy.max_delay, policy.base_delay * 2.0 ** balls[:, 1])
        delay = np.maximum(1, np.ceil(self.rng.uniform(0.0, ceilings))).astype(np.int64)
        balls[:, 1] += 1
        due = self.round + delay
        order = np.argsort(due, kind="stable")
        cuts = np.flatnonzero(np.diff(due[order])) + 1
        for group in np.split(order, cuts):
            self.backlog.setdefault(int(due[group[0]]), []).append(balls[group])

    def report(self) -> dict:
        assigned, retried, dropped = (int(x) for x in self.tally)
        lost = self.lost
        if self.retry is not None:
            # Balls still queued for a future resubmission never got their
            # last chance: count them lost, not silently dropped.
            lost += sum(len(b) for due in self.backlog.values() for b in due)
            retried = lost
        resolved = assigned + retried + dropped
        return {
            "submitted": self.submitted,
            "tally": {
                "assigned": assigned,
                "retry": retried,
                "dropped": dropped,
                "unresolved": self.submitted - resolved,
            },
            "retry_reasons": self.retry_reasons,
            "resubmitted": self.resubmitted,
            "lost": lost,
            "latencies": self.latencies[: self.n_assigned],
            "latencies_with_retries": self.latencies_total[: self.n_assigned],
        }


_NO_BALLS = np.empty(0, dtype=np.int64)


# ---------------------------------------------------------------------------
# TCP mode
# ---------------------------------------------------------------------------


async def run_tcp(
    host: str,
    port: int,
    trace: list[np.ndarray],
    tick: float,
    settle_s: float = 30.0,
    retry: RetryPolicy | None = None,
) -> dict:
    """Open-loop replay over the NDJSON wire; see module docstring.

    With a :class:`RetryPolicy`, a ball answered ``Retry`` is resubmitted
    (``balls=1``, a fresh request id) after its jittered backoff — one
    delay "round" is one client tick — and the replay is *done* when
    every logical ball reached a terminal outcome: assigned, dropped,
    or out of attempts.
    """
    import asyncio

    reader, writer = await asyncio.open_connection(host, port)
    loop = asyncio.get_running_loop()
    expected = int(sum(int(c.sum()) for c in trace))
    tally = {"assigned": 0, "retry": 0, "dropped": 0, "unresolved": 0}
    retry_reasons: dict[str, int] = {}
    latencies: list[int] = []
    latencies_total: list[int] = []
    errors = 0
    got = 0
    done = asyncio.Event()
    rng = retry.make_rng() if retry is not None else None
    meta: dict[int, tuple[int, int, float]] = {}  # rid -> (client, attempt, birth_t)
    counters = {"resubmitted": 0, "lost": 0}
    resend_tasks: set[asyncio.Task] = set()
    rid_box = [0]
    tick_s = max(tick, 1e-3)  # a zero tick still needs a finite backoff unit

    def encode_assign(client: int, balls: int, attempt: int, birth_t: float) -> bytes:
        rid_box[0] += 1
        rid = rid_box[0]
        if retry is not None:
            meta[rid] = (client, attempt, birth_t)
        return encode_response(
            {"op": "assign", "client": client, "balls": balls, "id": rid}
        )

    def finish_one() -> None:
        nonlocal got
        got += 1
        if got >= expected:
            done.set()

    async def resend_later(delay_s: float, client: int, attempt: int, birth_t: float):
        await asyncio.sleep(delay_s)
        counters["resubmitted"] += 1
        try:
            writer.write(encode_assign(client, 1, attempt, birth_t))
            await writer.drain()
        except ConnectionError:  # pragma: no cover - server died mid-resend
            counters["lost"] += 1
            tally["retry"] += 1
            finish_one()

    async def read_loop():
        nonlocal errors
        while got < expected:
            line = await reader.readline()
            if not line:
                break
            msg = decode_response(line)
            out = msg.get("outcome_obj")
            if out is None:
                if "error" in msg:
                    errors += 1
                    finish_one()
                continue
            ball_meta = meta.get(msg.get("id")) if retry is not None else None
            if out.outcome == "assigned":
                tally["assigned"] += 1
                latencies.append(out.latency_rounds)
                if ball_meta is not None:
                    latencies_total.append(
                        max(0, round((loop.time() - ball_meta[2]) / tick_s))
                    )
                finish_one()
            elif out.outcome == "dropped":
                tally["dropped"] += 1
                finish_one()
            else:  # retry outcome
                retry_reasons[out.reason] = retry_reasons.get(out.reason, 0) + 1
                if ball_meta is None:
                    tally["retry"] += 1
                    finish_one()
                    continue
                client, attempt, birth_t = ball_meta
                if attempt + 1 >= retry.max_attempts:
                    tally["retry"] += 1
                    counters["lost"] += 1
                    finish_one()
                else:
                    delay_s = retry.delay_rounds(attempt, rng) * tick_s
                    task = loop.create_task(
                        resend_later(delay_s, client, attempt + 1, birth_t)
                    )
                    resend_tasks.add(task)
                    task.add_done_callback(resend_tasks.discard)
        done.set()

    reader_task = loop.create_task(read_loop())
    t0 = time.perf_counter()
    for counts in trace:
        chunk = bytearray()
        birth_t = loop.time()
        for client in np.nonzero(counts)[0].tolist():
            chunk += encode_assign(client, int(counts[client]), 0, birth_t)
        if chunk:
            writer.write(bytes(chunk))
            await writer.drain()
        await asyncio.sleep(tick)
    try:
        await asyncio.wait_for(done.wait(), timeout=settle_s)
    except asyncio.TimeoutError:
        pass
    wall = time.perf_counter() - t0
    reader_task.cancel()
    for task in list(resend_tasks):
        task.cancel()
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):  # pragma: no cover - teardown race
        pass
    tally["unresolved"] = expected - sum(
        tally[k] for k in ("assigned", "retry", "dropped")
    ) - errors
    return {
        "wall_s": wall,
        "rounds": len(trace),
        "drain_rounds": 0,
        "submitted": expected,
        "tally": tally,
        "retry_reasons": retry_reasons,
        "errors": errors,
        "resubmitted": counters["resubmitted"],
        "lost": counters["lost"],
        "latencies": np.asarray(latencies, dtype=np.int64),
        "latencies_with_retries": np.asarray(latencies_total, dtype=np.int64),
        "stats": None,
    }


# ---------------------------------------------------------------------------
# Chaos mode
# ---------------------------------------------------------------------------


async def run_chaos(
    service: SaerService,
    trace: list[np.ndarray],
    tick: float,
    settle_s: float = 30.0,
    retry: RetryPolicy | None = None,
) -> dict:
    """Replay ``trace`` over real TCP against a service we boot ourselves.

    The service's :class:`~repro.faults.FaultSchedule` (attached to its
    :class:`ServingState`) fires mid-replay — crashes, stalls, Byzantine
    servers — while the client retries with backoff and the service's
    health loop quarantines the corpses.  Unlike ``tcp`` mode the
    service lives in-process, so the report keeps its ``stats`` block.
    """
    server = await serve_tcp(service, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    try:
        run = await run_tcp("127.0.0.1", port, trace, tick, settle_s, retry=retry)
    finally:
        server.close()
        await server.wait_closed()
        await service.shutdown()
    run["stats"] = service.stats()
    return run


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


def _lat_stats(lat: np.ndarray) -> dict:
    if lat.size == 0:
        return {"mean": math.nan, "p50": math.nan, "p95": math.nan, "p99": math.nan}
    return {
        "mean": round(float(lat.mean()), 3),
        "p50": float(np.quantile(lat, 0.50)),
        "p95": float(np.quantile(lat, 0.95)),
        "p99": float(np.quantile(lat, 0.99)),
    }


def build_report(mode: str, config: dict, trace_meta: dict, run: dict) -> dict:
    """Assemble the report payload from a run's raw tallies."""
    tally = run["tally"]
    submitted = run["submitted"]
    lat = _lat_stats(run["latencies"])
    wall = run["wall_s"]
    assigned = tally["assigned"]
    resubmitted = run.get("resubmitted", 0)
    return {
        "bench": "serve",
        "mode": mode,
        "config": config,
        "trace": trace_meta,
        "totals": {**tally, "submitted": submitted, "errors": run.get("errors", 0)},
        "retry_reasons": run["retry_reasons"],
        "assignment_rate": round(assigned / submitted, 4) if submitted else math.nan,
        "latency_rounds": lat,
        "retries": {
            "resubmitted": resubmitted,
            "lost": run.get("lost", 0),
            "retry_rate": round(resubmitted / submitted, 4) if submitted else 0.0,
            "latency_with_retries_rounds": _lat_stats(
                run.get("latencies_with_retries", np.asarray([], dtype=np.int64))
            ),
        },
        "throughput": {
            "wall_s": round(wall, 4),
            "rounds": run["rounds"],
            "drain_rounds": run["drain_rounds"],
            "assigned_per_s": round(assigned / wall, 1) if wall > 0 else math.nan,
            "balls_per_s": round(submitted / wall, 1) if wall > 0 else math.nan,
            "rounds_per_s": round(run["rounds"] / wall, 1) if wall > 0 else math.nan,
        },
        "conservation": {
            # Every submitted ball resolves to exactly one of
            # assigned/retry/dropped — a lost ball (e.g. a routing bug
            # eating one) shows up as unresolved.
            "resolved": assigned + tally["retry"] + tally["dropped"],
            "unresolved": tally["unresolved"],
            # tcp mode has no in-process service, hence no stats.
            "service_assigned_total": (run["stats"] or {}).get("assigned_total"),
            "conserved": (
                tally["unresolved"] == 0
                and assigned + tally["retry"] + tally["dropped"] == submitted
            ),
        },
        "service": run["stats"],
    }


def check_report(
    report: dict,
    min_assign_rate: float | None,
    max_p95: float | None,
    min_throughput: float | None = None,
    *,
    max_retry_rate: float | None = None,
    max_p99_retries: float | None = None,
    max_lost: int | None = None,
    check_conservation: bool = False,
) -> list[str]:
    """The CI gate: list of violated bounds (empty = pass).

    The retry-aware gates read the ``retries`` block: ``max_retry_rate``
    bounds resubmissions per submitted ball, ``max_p99_retries`` bounds
    the p99 of end-to-end latency *including* backoff rounds, and
    ``max_lost`` bounds balls that ran out of attempts (``0`` asserts no
    ball was ever lost).  ``check_conservation`` asserts the accounting
    identity ``assigned + retry + dropped == submitted`` with zero
    unresolved balls.
    """
    failures = []
    if check_conservation:
        cons = report.get("conservation", {})
        if not cons.get("conserved", False):
            failures.append(
                "accounting not conserved: resolved "
                f"{cons.get('resolved')} of {report['totals'].get('submitted')} "
                f"submitted, {cons.get('unresolved')} unresolved"
            )
    if min_assign_rate is not None:
        rate = report["assignment_rate"]
        if not rate >= min_assign_rate:
            failures.append(
                f"assignment_rate {rate} < required {min_assign_rate}"
            )
    if max_p95 is not None:
        p95 = report["latency_rounds"]["p95"]
        if not p95 <= max_p95:
            failures.append(f"latency p95 {p95} rounds > allowed {max_p95}")
    if min_throughput is not None:
        tput = report["throughput"]["assigned_per_s"]
        if not tput >= min_throughput:
            failures.append(f"assigned_per_s {tput} < required {min_throughput}")
    retries = report.get("retries", {})
    if max_retry_rate is not None:
        rr = retries.get("retry_rate", 0.0)
        if not rr <= max_retry_rate:
            failures.append(f"retry_rate {rr} > allowed {max_retry_rate}")
    if max_p99_retries is not None:
        p99r = retries.get("latency_with_retries_rounds", {}).get("p99", math.nan)
        if not p99r <= max_p99_retries:
            failures.append(
                f"latency-with-retries p99 {p99r} rounds > allowed {max_p99_retries}"
            )
    if max_lost is not None:
        lost = retries.get("lost", 0)
        if not lost <= max_lost:
            failures.append(f"lost balls {lost} > allowed {max_lost}")
    return failures


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    """``repro-lb loadgen`` entry point."""
    import asyncio

    parser = argparse.ArgumentParser(
        prog="repro-lb loadgen",
        description="Replay an arrival trace against the serving layer.",
    )
    parser.add_argument("--mode", choices=("inprocess", "tcp", "chaos"),
                        default="inprocess")
    # in-process service construction (ignored under --mode tcp)
    parser.add_argument("--n", type=int, default=10_000, help="clients = servers = n")
    parser.add_argument("--family", default="trust")
    parser.add_argument("--degree", type=int, default=None)
    parser.add_argument("--c", type=float, default=2.0)
    parser.add_argument("--d", type=int, default=4)
    parser.add_argument("--recovery", type=int, default=8,
                        help="burn recovery rounds; 0 disables recovery")
    parser.add_argument("--churn", type=float, default=0.0)
    parser.add_argument("--kernel", default=None, choices=KERNEL_NAMES)
    parser.add_argument("--seed", type=int, default=None, help="protocol RNG seed")
    parser.add_argument("--graph-seed", type=int, default=1)
    parser.add_argument("--max-batch", type=int, default=1 << 30,
                        help="service max_batch (driven mode never ticks)")
    parser.add_argument("--max-pending", type=int, default=None)
    parser.add_argument("--max-wait-rounds", type=int, default=None)
    parser.add_argument("--drain-rounds", type=int, default=2000,
                        help="extra rounds to flush the backlog after the trace")
    # trace
    parser.add_argument("--trace", choices=("poisson", "burst", "hotspot"),
                        default="poisson")
    parser.add_argument("--rate", type=float, default=0.5,
                        help="arrivals per client per round (poisson/hotspot)")
    parser.add_argument("--rounds", type=int, default=200)
    parser.add_argument("--batch-size", type=int, default=64, help="burst size")
    parser.add_argument("--period", type=int, default=1, help="burst period")
    parser.add_argument("--hot-fraction", type=float, default=0.01)
    parser.add_argument("--hot-weight", type=float, default=0.9)
    parser.add_argument("--trace-seed", type=int, default=7)
    # tcp / chaos
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7077)
    parser.add_argument("--tick", type=float, default=0.01,
                        help="seconds between trace rounds (tcp/chaos mode)")
    parser.add_argument("--settle", type=float, default=30.0,
                        help="seconds to wait for in-flight responses (tcp/chaos)")
    # fault injection (inprocess/chaos; the served state owns the faults)
    parser.add_argument("--fault-kind", default=None,
                        choices=("crash", "stall", "byz_server",
                                 "byz_client_dup", "byz_client_misroute"),
                        help="inject this fault kind (chaos mode defaults to crash)")
    parser.add_argument("--fault-fraction", type=float, default=0.1,
                        help="fraction of servers/clients made faulty")
    parser.add_argument("--fault-start", type=int, default=10,
                        help="round the fault fires (mid-replay by default)")
    parser.add_argument("--fault-end", type=int, default=None,
                        help="round the fault heals (None = forever)")
    parser.add_argument("--fault-seed", type=int, default=1)
    # client-side retries
    parser.add_argument("--retry", type=int, default=None, metavar="ATTEMPTS",
                        help="enable retries with this many total attempts "
                             "(chaos mode defaults to 4)")
    parser.add_argument("--retry-base", type=float, default=1.0,
                        help="base backoff in rounds/ticks")
    parser.add_argument("--retry-cap", type=float, default=16.0,
                        help="backoff ceiling in rounds/ticks")
    parser.add_argument("--retry-seed", type=int, default=0)
    # self-healing service knobs (inprocess/chaos)
    parser.add_argument("--health-streak", type=int, default=None,
                        help="quarantine after this many all-reject rounds "
                             "(chaos mode defaults to 3; omit elsewhere to disable)")
    parser.add_argument("--quarantine-rounds", type=int, default=32,
                        help="rounds a quarantined server sits out")
    parser.add_argument("--brownout-threshold", type=float, default=None,
                        help="shed load while unavailable fraction exceeds this")
    parser.add_argument("--brownout-shed", type=float, default=0.5)
    # metric snapshot spool (inprocess/chaos)
    parser.add_argument("--snapshot-out", default=None,
                        help="NDJSON path for periodic metric snapshots")
    parser.add_argument("--snapshot-every", type=int, default=10,
                        help="rounds between snapshots (with --snapshot-out)")
    # report + gates
    parser.add_argument("--out", default="BENCH_serve.json",
                        help="report path ('-' to skip writing)")
    parser.add_argument("--min-assign-rate", type=float, default=None)
    parser.add_argument("--max-p95", type=float, default=None)
    parser.add_argument("--min-throughput", type=float, default=None,
                        help="required assigned_per_s (inprocess bench gate)")
    parser.add_argument("--max-retry-rate", type=float, default=None,
                        help="allowed resubmissions per submitted ball")
    parser.add_argument("--max-p99-retries", type=float, default=None,
                        help="allowed p99 latency including retries (rounds)")
    parser.add_argument("--max-lost", type=int, default=None,
                        help="allowed balls that exhausted all retry attempts")
    parser.add_argument("--check-conservation", action="store_true",
                        help="fail unless assigned+retry+dropped == submitted "
                             "with zero unresolved futures")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    arrivals = make_arrivals(
        args.trace,
        args.rate,
        batch_size=args.batch_size,
        period=args.period,
        hot_fraction=args.hot_fraction,
        hot_weight=args.hot_weight,
    )

    chaos = args.mode == "chaos"
    retry_attempts = args.retry if args.retry is not None else (4 if chaos else None)
    retry = None
    if retry_attempts is not None:
        retry = RetryPolicy(
            max_attempts=retry_attempts,
            base_delay=args.retry_base,
            max_delay=args.retry_cap,
            seed=args.retry_seed,
        )
    fault_kind = args.fault_kind or ("crash" if chaos else None)
    faults = None
    if fault_kind is not None:
        faults = FaultSchedule(
            (
                FaultSpec(
                    fault_kind,
                    args.fault_fraction,
                    start=args.fault_start,
                    end=args.fault_end,
                ),
            ),
            seed=args.fault_seed,
        )
    health_streak = args.health_streak if args.health_streak is not None else (
        3 if chaos else None
    )
    health = None
    if health_streak is not None:
        health = HealthPolicy(
            fail_streak=health_streak, quarantine_rounds=args.quarantine_rounds
        )

    if args.mode in ("inprocess", "chaos"):
        point = {"family": args.family, "n": args.n}
        if args.degree:
            point["degree"] = args.degree
        graph = build_point_graph(point, args.graph_seed)
        # A chaos run needs timeouts: balls sitting on a crashed server
        # must come back Retry("timeout") for backoff to have any work.
        max_wait = args.max_wait_rounds
        if chaos and max_wait is None:
            max_wait = 8
        state = ServingState(
            graph,
            args.c,
            args.d,
            recovery=args.recovery or None,
            churn=RewireChurn(args.churn) if args.churn else None,
            seed=args.seed,
            kernel=args.kernel,
            track_tags=True,
            faults=faults,
        )
        service = SaerService(
            state,
            ServeConfig(
                tick=args.tick if chaos else 0.05,
                max_batch=args.max_batch,
                max_pending=args.max_pending,
                max_wait_rounds=max_wait,
                snapshot_every=args.snapshot_every if args.snapshot_out else 0,
                health=health,
                brownout_threshold=args.brownout_threshold,
                brownout_shed=args.brownout_shed,
            ),
        )
        if args.snapshot_out:
            from .metrics import ndjson_snapshot_hook

            service.metrics.add_snapshot_hook(ndjson_snapshot_hook(args.snapshot_out))
        trace = sample_trace(arrivals, graph.n_clients, args.rounds, args.trace_seed)
        if chaos:
            run = asyncio.run(
                run_chaos(service, trace, args.tick, args.settle, retry=retry)
            )
        else:
            run = run_inprocess(service, trace, args.drain_rounds, retry=retry)
        config = {
            "n": args.n, "family": args.family, "degree": args.degree,
            "c": args.c, "d": args.d, "recovery": args.recovery or None,
            "churn": args.churn, "kernel": run["stats"].get("kernel"),
            "seed": args.seed,
            "graph_seed": args.graph_seed, "max_wait_rounds": max_wait,
            "faults": {
                "kind": fault_kind, "fraction": args.fault_fraction,
                "start": args.fault_start, "end": args.fault_end,
                "seed": args.fault_seed,
            } if faults is not None else None,
            "health": {
                "fail_streak": health_streak,
                "quarantine_rounds": args.quarantine_rounds,
            } if health is not None else None,
            "brownout_threshold": args.brownout_threshold,
            "retry": {
                "max_attempts": retry_attempts, "base": args.retry_base,
                "cap": args.retry_cap, "seed": args.retry_seed,
            } if retry is not None else None,
        }
        n_clients = graph.n_clients
    else:
        # The server owns the topology; the trace just needs a client-id
        # range, which --n supplies (must not exceed the server's n).
        n_clients = args.n
        trace = sample_trace(arrivals, n_clients, args.rounds, args.trace_seed)
        run = asyncio.run(
            run_tcp(args.host, args.port, trace, args.tick, args.settle, retry=retry)
        )
        config = {
            "host": args.host, "port": args.port, "n": args.n,
            "tick": args.tick,
            "retry": {
                "max_attempts": retry_attempts, "base": args.retry_base,
                "cap": args.retry_cap, "seed": args.retry_seed,
            } if retry is not None else None,
        }

    trace_meta = {
        "kind": args.trace,
        "rounds": args.rounds,
        "seed": args.trace_seed,
        "balls": int(sum(int(c.sum()) for c in trace)),
        "offered_per_round": round(arrivals.expected_per_round(n_clients), 3),
    }
    report = build_report(args.mode, config, trace_meta, run)
    failures = check_report(
        report, args.min_assign_rate, args.max_p95, args.min_throughput,
        max_retry_rate=args.max_retry_rate,
        max_p99_retries=args.max_p99_retries,
        max_lost=args.max_lost,
        check_conservation=args.check_conservation,
    )
    report["gates"] = {
        "min_assign_rate": args.min_assign_rate,
        "max_p95": args.max_p95,
        "min_throughput": args.min_throughput,
        "max_retry_rate": args.max_retry_rate,
        "max_p99_retries": args.max_p99_retries,
        "max_lost": args.max_lost,
        "check_conservation": args.check_conservation,
        "passed": not failures,
        "failures": failures,
    }
    if args.out != "-":
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=False)
            fh.write("\n")
    if not args.quiet:
        t = report["throughput"]
        print(
            f"loadgen[{args.mode}] {trace_meta['balls']} balls / "
            f"{t['rounds']} rounds in {t['wall_s']}s — "
            f"assigned {report['totals']['assigned']} "
            f"({report['assignment_rate']:.1%}) at {t['assigned_per_s']}/s, "
            f"latency p50/p95 = {report['latency_rounds']['p50']}/"
            f"{report['latency_rounds']['p95']} rounds"
        )
        if args.out != "-":
            print(f"report written to {args.out}")
    for f in failures:
        print(f"GATE FAILED: {f}")
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
