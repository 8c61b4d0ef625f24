"""The live-traffic service: micro-batched SAER rounds over asyncio.

:class:`SaerService` turns the shared :class:`~repro.serve.state.ServingState`
into a request/response system whose unit is the ball *batch*.
:meth:`SaerService.submit_many` ingests whole arrays of requests
(client ids + ball counts) at once and hands each ball a consecutive
integer tag; every round then publishes what it resolved as one
:class:`~repro.serve.protocol.Outcomes` record of aligned arrays (tag,
outcome, server, latency, reason) on :attr:`SaerService.outcomes`.
Arrivals accumulate in a pending queue and are **micro-batched**: a
round fires every ``tick`` seconds *or* as soon as the queue reaches
``max_batch`` balls, whichever comes first — so a loaded service
amortizes the vectorized round step over thousands of concurrent
requests exactly the way the batched engine amortizes trials, while a
quiet one still bounds latency by the tick.

Per-ball objects exist only at the edge.  :meth:`SaerService.submit` is
a thin wrapper over the same ingest that returns one
:class:`BallFuture` per ball; a round resolves futures only for the tags
that have one (the NDJSON/TCP front end and direct callers), so a
columnar caller such as the load generator's driven mode never pays
for them.

The round itself is ``round_begin → admit_balls → route → evict`` on
the shared state — the identical step the offline simulator runs — so
live behaviour (burn thresholds, recovery, churn, drop accounting) can
never drift from the E12 tables.  :func:`serve_tcp` bolts the
newline-delimited-JSON front end (:mod:`repro.serve.protocol`) onto a
service with ``asyncio.start_server``; in-process callers skip the wire
entirely.

Everything runs on one event loop; :meth:`run_round` is synchronous and
loop-free, so the load generator's *driven* mode can also call it
directly (no ticker, no sleeps) for maximum-throughput replay.  That
mode never imports ``asyncio``: the coroutines, the TCP front end and
:meth:`SaerService.start` (which builds the tick loop's event) import
it themselves.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..batch.kernels import KERNEL_NAMES
from ..errors import CheckpointError, ServeError
from ..faults.health import HealthPolicy, HealthTracker
from .metrics import MetricsRegistry
from .protocol import (
    DROPPED,
    EMPTY_OUTCOMES,
    REASON_BACKPRESSURE,
    REASON_BROWNOUT,
    REASON_ISOLATED,
    REASON_SHUTDOWN,
    REASON_TIMEOUT,
    RETRY,
    Outcomes,
    ProtocolError,
    decode_request,
    encode_outcome,
    encode_response,
)
from .state import ServingState

if TYPE_CHECKING:
    import asyncio

__all__ = ["BallFuture", "ServeConfig", "SaerService", "serve_tcp"]

#: Assignment-latency buckets, in rounds (small integers dominate).
ROUND_BUCKETS = (0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 128, 256)
#: Per-round service-time buckets, in seconds.
TIME_BUCKETS = (
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)

_PENDING = object()
_NO_TAGS = np.empty(0, dtype=np.int64)


class BallFuture:
    """A minimal, loop-free per-ball future.

    Only the edge holds these (the TCP front end and direct
    :meth:`~SaerService.submit` callers), so they carry no event-loop
    machinery: just a result slot and done callbacks (invoked
    synchronously from :meth:`SaerService.run_round`, which runs on the
    service's event loop — the asyncio threading model is preserved).
    ``await``-style consumption goes through :meth:`wait`, which lazily
    bridges onto an ``asyncio`` future only for callers that want it.
    """

    __slots__ = ("_result", "_callbacks")

    def __init__(self) -> None:
        self._result = _PENDING
        self._callbacks: list | None = None

    def done(self) -> bool:
        return self._result is not _PENDING

    def result(self):
        if self._result is _PENDING:
            import asyncio

            raise asyncio.InvalidStateError("ball outcome is not available yet")
        return self._result

    def set_result(self, outcome) -> None:
        if self._result is not _PENDING:
            import asyncio

            raise asyncio.InvalidStateError("outcome already set")
        self._result = outcome
        callbacks, self._callbacks = self._callbacks, None
        if callbacks:
            for cb in callbacks:
                cb(self)

    def add_done_callback(self, cb) -> None:
        if self._result is not _PENDING:
            cb(self)
            return
        if self._callbacks is None:
            self._callbacks = []
        self._callbacks.append(cb)

    async def wait(self):
        """Await the outcome from a coroutine on the service's loop."""
        if self._result is not _PENDING:
            return self._result
        import asyncio

        loop = asyncio.get_running_loop()
        afut = loop.create_future()
        self.add_done_callback(
            lambda f: afut.done() or afut.set_result(f.result())
        )
        return await afut


def as_requests(clients, balls, n_clients: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Validate a columnar request batch; returns int64 ``(clients, balls)``
    and the total ball count.

    Every request is checked before anything is queued, so an invalid
    one rejects the whole batch without side effects.
    """
    clients = np.asarray(clients, dtype=np.int64).ravel()
    balls = np.asarray(balls, dtype=np.int64).ravel()
    if clients.shape != balls.shape:
        raise ServeError(
            f"clients and balls must align; got {clients.size} and {balls.size}"
        )
    if balls.size and balls.min() < 1:
        raise ServeError(f"balls must be >= 1; got {int(balls.min())}")
    if clients.size and (clients.min() < 0 or clients.max() >= n_clients):
        bad = clients[(clients < 0) | (clients >= n_clients)][0]
        raise ServeError(f"client must be in [0, {n_clients}); got {int(bad)}")
    return clients, balls, int(balls.sum())


def tag_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + k) for s, k in zip(starts, lengths)])``."""
    offsets = np.cumsum(lengths) - lengths
    return np.repeat(starts - offsets, lengths) + np.arange(int(lengths.sum()))


class TagTable:
    """Per-ball rows keyed by consecutive tags, kept only until resolved.

    A columnar caller's bookkeeping: :meth:`add` appends the rows of
    tags ``first, first + 1, ...`` (continuing where the last call
    stopped), :meth:`take` hands back and forgets the rows of resolved
    tags.  Memory follows the span from the oldest unresolved tag to the
    newest, not every tag ever seen.
    """

    def __init__(self, width: int) -> None:
        self._rows = np.empty((1024, width), dtype=np.int64)
        self._done = np.zeros(1024, dtype=bool)
        self._lo = self._hi = 0  # live rows are [lo, hi)
        self.base = 0  # tag of row lo

    def add(self, first: int, rows: np.ndarray) -> None:
        if self._lo == self._hi:
            self._lo = self._hi = 0
            self.base = first
        elif first != self.base + self._hi - self._lo:
            raise ServeError("TagTable rows must arrive in tag order without gaps")
        n = len(rows)
        if self._hi + n > len(self._done):
            live = self._hi - self._lo
            cap = max(len(self._done), 2 * (live + n))
            moved = np.empty((cap, self._rows.shape[1]), dtype=np.int64)
            moved[:live] = self._rows[self._lo:self._hi]
            done = np.zeros(cap, dtype=bool)
            done[:live] = self._done[self._lo:self._hi]
            self._rows, self._done = moved, done
            self._lo, self._hi = 0, live
        self._rows[self._hi:self._hi + n] = rows
        self._done[self._hi:self._hi + n] = False
        self._hi += n

    def take(self, tags: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(rows, known)``: the rows of the ``known`` tags, in order.

        Tags never added (or already taken) are not ``known``.
        """
        at = tags - self.base
        known = (at >= 0) & (at < self._hi - self._lo)
        known[known] = ~self._done[self._lo + at[known]]
        at = self._lo + at[known]
        rows = self._rows[at]
        self._done[at] = True
        open_ = ~self._done[self._lo:self._hi]
        step = int(open_.argmax()) if open_.any() else open_.size
        self._lo += step
        self.base += step
        return rows, known


@dataclass(frozen=True)
class ServeConfig:
    """Micro-batching and queue-policy knobs of :class:`SaerService`.

    ``tick``
        Seconds between rounds when the queue stays below ``max_batch``
        (the latency bound for a lightly loaded service).
    ``max_batch``
        Pending-ball count that fires a round immediately (the
        throughput knob; a full batch never waits for the tick).
    ``max_pending``
        Backpressure cap on queued + in-flight balls; submissions over
        it resolve as ``Retry("backpressure")`` instead of queueing.
        ``None`` disables the cap.
    ``max_wait_rounds``
        Balls unassigned after this many rounds resolve as
        ``Retry("timeout")`` — keeps a stalled system (every server
        burned, recovery off) from accumulating balls forever.
        ``None`` lets balls wait indefinitely, like the simulator.
    ``snapshot_every``
        Fire the metric registry's snapshot hooks every this many
        rounds (0 disables).
    ``health``
        A :class:`~repro.faults.HealthPolicy`: track per-server
        accept/reject evidence each round, quarantine servers that keep
        rejecting (crash, stall, or stuck burn), readmit them on
        probation.  ``None`` disables the self-healing loop.
    ``brownout_threshold`` / ``brownout_shed``
        Burned-fraction load shedding: while the unavailable fraction
        (burned ∪ quarantined) after a round exceeds the threshold, a
        ``brownout_shed`` fraction of newly submitted balls is resolved
        immediately as ``Retry("brownout")`` — a deterministic
        Bresenham-style accumulator, no RNG — so clients back off
        before the backlog melts down.  ``None`` disables brownout.
    """

    tick: float = 0.05
    max_batch: int = 4096
    max_pending: int | None = None
    max_wait_rounds: int | None = None
    snapshot_every: int = 0
    health: HealthPolicy | None = None
    brownout_threshold: float | None = None
    brownout_shed: float = 0.5

    def __post_init__(self) -> None:
        if self.tick <= 0:
            raise ServeError("tick must be > 0 seconds")
        if self.max_batch < 1:
            raise ServeError("max_batch must be >= 1")
        if self.max_pending is not None and self.max_pending < 1:
            raise ServeError("max_pending must be >= 1 when given")
        if self.max_wait_rounds is not None and self.max_wait_rounds < 1:
            raise ServeError("max_wait_rounds must be >= 1 when given")
        if self.snapshot_every < 0:
            raise ServeError("snapshot_every must be >= 0")
        if self.brownout_threshold is not None and not (
            0.0 < self.brownout_threshold <= 1.0
        ):
            raise ServeError("brownout_threshold must be in (0, 1] when given")
        if not (0.0 < self.brownout_shed <= 1.0):
            raise ServeError("brownout_shed must be in (0, 1]")


class SaerService:
    """Micro-batched request/response layer over a :class:`ServingState`.

    Submitted balls wait in a pending queue of per-call arrays until a
    round takes them; :attr:`in_flight` counts the caller balls not yet
    resolved.  Tags are consecutive integers handed out in submission
    order, one per ball whether it is queued or rejected at submission;
    the state carries them through every round.  :attr:`outcomes` holds
    the last round's :class:`~repro.serve.protocol.Outcomes`, in the
    order the balls resolved: rejections made at submission since the
    previous round (submission order), isolated-client drops,
    assignments (ball-buffer order), then ``max_wait_rounds`` timeouts
    (eviction order).  Only caller balls appear; adversarial duplicates
    (tag -1) never do.  Futures exist only for :meth:`submit` callers:
    each round resolves those of the tags that have one.
    """

    def __init__(
        self,
        state: ServingState,
        config: ServeConfig | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if not state.track_tags:
            raise ServeError(
                "SaerService needs a ServingState(track_tags=True) to map "
                "assignments back to the balls' tags"
            )
        self.state = state
        self.config = config or ServeConfig()
        self.metrics = registry or MetricsRegistry()
        self._next_tag = 0
        self._pending_owners: list[np.ndarray] = []
        self._pending_tags: list[np.ndarray] = []
        self._n_pending = 0
        self._in_flight = 0
        self._rejected: list[Outcomes] = []  # made at submission, not yet published
        self._futures: dict[int, BallFuture] = {}
        self.outcomes = EMPTY_OUTCOMES
        # Tags below the floor were resolved by shutdown(); a later
        # round that routes them reports nothing.
        self._tag_floor = 0
        self._kick: asyncio.Event | None = None  # built by start()
        self._ticker: asyncio.Task | None = None
        self._accepting = True
        self._health: HealthTracker | None = None
        if self.config.health is not None:
            self._health = HealthTracker(self.config.health, state.n_servers)
            state.track_health = True
        self._brownout_active = False
        self._shed_acc = 0.0
        m = self.metrics
        self._m_requests = m.counter("serve_requests_total", "assign requests received")
        self._m_balls = m.counter("serve_balls_total", "balls submitted")
        self._m_assigned = m.counter("serve_assigned_total", "balls assigned to a server")
        self._m_dropped = m.counter("serve_dropped_total", "balls dropped (unservable)")
        self._m_retried = m.counter("serve_retried_total", "balls resolved as retry")
        self._m_rounds = m.counter("serve_rounds_total", "micro-batched rounds executed")
        self._m_rewired = m.counter("serve_rewired_clients_total", "client neighborhoods churned")
        self._m_backlog = m.gauge("serve_backlog", "in-flight balls after the last round")
        self._m_pending = m.gauge("serve_pending", "balls queued for the next round")
        self._m_burned = m.gauge("serve_burned_fraction", "burned servers / servers")
        self._m_round_s = m.histogram(
            "serve_round_seconds", "wall time per round", TIME_BUCKETS
        )
        self._m_lat = m.histogram(
            "serve_assign_latency_rounds", "rounds from arrival to assignment",
            ROUND_BUCKETS,
        )
        self._m_quarantined = m.gauge(
            "serve_quarantined", "servers currently quarantined"
        )
        self._m_q_events = m.counter(
            "serve_quarantine_events_total", "servers sent to quarantine"
        )
        self._m_readmitted = m.counter(
            "serve_readmitted_total", "servers readmitted from quarantine"
        )
        self._m_brownout = m.gauge(
            "serve_brownout", "1 while brownout shedding is active"
        )
        self._m_shed = m.counter(
            "serve_brownout_shed_total", "balls shed during brownout"
        )

    # -- submission --------------------------------------------------------

    def submit(self, client: int, balls: int = 1) -> list[BallFuture]:
        """Queue ``balls`` assignment requests for ``client``.

        Returns one :class:`BallFuture` per ball, in tag order.  Balls
        rejected at submission (over ``max_pending``, shed by brownout,
        or after :meth:`shutdown`) come back already resolved as
        ``Retry`` — the caller always gets exactly ``balls`` futures.
        """
        n_clients = self.state.n_clients
        if balls < 1:
            raise ServeError(f"balls must be >= 1; got {balls}")
        if not 0 <= client < n_clients:
            raise ServeError(f"client must be in [0, {n_clients}); got {client}")
        first, rejected = self._ingest(
            np.array([client], dtype=np.int64), np.array([balls], dtype=np.int64), balls
        )
        futs = [BallFuture() for _ in range(balls)]
        if rejected is not None:
            for tag, outcome in zip(rejected.tags.tolist(), rejected.objects()):
                futs[tag - first].set_result(outcome)
        futures = self._futures
        for i, fut in enumerate(futs):
            if not fut.done():
                futures[first + i] = fut
        return futs

    def submit_many(self, clients, balls) -> int:
        """Queue ``balls[i]`` assignment requests for ``clients[i]``, for every i.

        Exactly ``for c, k in zip(clients, balls): submit(c, k)`` — the
        same tags, counters, brownout accumulator and backpressure room —
        without a per-ball object.  Returns the first tag; the call's
        balls hold ``first, first + 1, ...`` in submission order.  Balls
        rejected at submission are reported in the next round's
        :attr:`outcomes`.
        """
        return self._ingest(*as_requests(clients, balls, self.state.n_clients))[0]

    def _ingest(self, clients, balls, total: int) -> tuple[int, Outcomes | None]:
        """Queue validated int64 request arrays holding ``total`` balls;
        returns the first tag and the rows rejected at submission
        (``None`` when there are none)."""
        self._m_requests.inc(clients.size)
        self._m_balls.inc(total)
        first = self._next_tag
        self._next_tag = first + total
        rejected = None
        if not self._accepting:
            self._m_retried.inc(total)
            rejected = Outcomes.unserved(
                np.arange(first, first + total), RETRY, REASON_SHUTDOWN
            )
        elif self._brownout_active or self.config.max_pending is not None:
            rejected = self._admit(clients, balls, first)
        elif total:
            self._queue(np.repeat(clients, balls), np.arange(first, first + total))
        if rejected is not None:
            self._rejected.append(rejected)
        if self._accepting:
            self._m_pending.set(self._n_pending)
            if self._n_pending >= self.config.max_batch and self._kick is not None:
                self._kick.set()
        return first, rejected

    def _admit(self, clients, balls, first: int) -> Outcomes | None:
        """Queue what brownout shedding and the ``max_pending`` room let
        in; returns the rejected rows in submission order."""
        starts = first + np.cumsum(balls) - balls  # each request's first tag
        parts = []
        admit = balls
        if self._brownout_active:
            shed = self._shed(balls)
            n_shed = int(shed.sum())
            if n_shed:
                self._m_retried.inc(n_shed)
                self._m_shed.inc(n_shed)
                parts.append(
                    Outcomes.unserved(tag_ranges(starts, shed), RETRY, REASON_BROWNOUT)
                )
                starts = starts + shed
                admit = balls - shed
        cap = self.config.max_pending
        if cap is not None:
            room = cap - (self._n_pending + self.state.backlog)
            wanted = admit
            admit = np.clip(room - (np.cumsum(wanted) - wanted), 0, wanted)
            over = wanted - admit
            n_over = int(over.sum())
            if n_over:
                self._m_retried.inc(n_over)
                parts.append(
                    Outcomes.unserved(
                        tag_ranges(starts + admit, over), RETRY, REASON_BACKPRESSURE
                    )
                )
        if admit.any():
            self._queue(np.repeat(clients, admit), tag_ranges(starts, admit))
        if not parts:
            return None
        rejected = Outcomes.concat(parts)
        if len(parts) > 1:  # interleave the two kinds request by request
            rejected = rejected[np.argsort(rejected.tags, kind="stable")]
        return rejected

    def _shed(self, balls: np.ndarray) -> np.ndarray:
        """Balls shed per request: a deterministic Bresenham-style
        accumulator, no RNG, exact long-run fraction."""
        acc = self._shed_acc
        frac = self.config.brownout_shed
        shed = np.empty(balls.size, dtype=np.int64)
        for i, k in enumerate(balls.tolist()):
            acc += k * frac
            n = int(acc)
            acc -= n
            shed[i] = n
        self._shed_acc = acc
        return shed

    @property
    def pending(self) -> int:
        """Balls queued for the next round (not yet admitted)."""
        return self._n_pending

    @property
    def in_flight(self) -> int:
        """Caller balls not yet resolved (queued + admitted backlog)."""
        return self._in_flight

    def _queue(self, owners: np.ndarray, tags: np.ndarray) -> None:
        self._pending_owners.append(owners)
        self._pending_tags.append(tags)
        self._n_pending += tags.size
        self._in_flight += tags.size

    def _take_pending(self) -> tuple[np.ndarray, np.ndarray]:
        owners, tags = self._pending_owners, self._pending_tags
        self._pending_owners, self._pending_tags = [], []
        self._n_pending = 0
        if len(tags) == 1:
            return owners[0], tags[0]
        return np.concatenate([_NO_TAGS, *owners]), np.concatenate([_NO_TAGS, *tags])

    # -- the micro-batched round -------------------------------------------

    def run_round(self) -> int:
        """Execute one round over the queued batch; returns balls assigned.

        What the round resolved lands in :attr:`outcomes`.  Synchronous
        and loop-free by design: the ticker task calls it once per
        tick/kick, and the load generator's driven mode calls it
        back-to-back for full-speed replay.
        """
        t0 = time.perf_counter()
        state = self.state
        self._m_rewired.inc(state.round_begin())
        rejected, self._rejected = self._rejected, []
        resolved = []
        if self._pending_tags:
            owners, tags = self._take_pending()
            _admitted, dropped_tags = state.admit_balls(owners, tags)
            if dropped_tags.size:
                self._m_dropped.inc(dropped_tags.size)
                resolved.append(Outcomes.unserved(dropped_tags, DROPPED, REASON_ISOLATED))
        out = state.route()
        if out.assigned:
            self._m_assigned.inc(out.assigned)
            self._m_lat.observe_many(out.latencies)
            resolved.append(
                Outcomes.assigned(out.assigned_tags, out.assigned_servers, out.latencies)
            )
        if self.config.max_wait_rounds is not None:
            _owners, stale_tags = state.evict_overdue(self.config.max_wait_rounds)
            if stale_tags.size:
                self._m_retried.inc(stale_tags.size)
                resolved.append(Outcomes.unserved(stale_tags, RETRY, REASON_TIMEOUT))
        record = Outcomes.concat(resolved)
        # Caller balls only: not duplicates (tag -1), not balls shutdown() abandoned.
        callers = record.tags >= self._tag_floor
        if not callers.all():
            record = record[callers]
        self._in_flight -= len(record)
        self._publish(Outcomes.concat([*rejected, record]))
        if self._health is not None and out.received is not None:
            to_q, to_r = self._health.observe(out.received, out.accepted_counts)
            if to_q.size:
                self._m_q_events.inc(state.set_quarantine(to_q))
            if to_r.size:
                self._m_readmitted.inc(state.readmit(to_r))
            self._m_quarantined.set(state.quarantined_count)
        threshold = self.config.brownout_threshold
        if threshold is not None:
            # Unavailable = burned ∪ quarantined, measured once per
            # round (submission must not rescan the servers).
            if state.quarantined is not None:
                unavailable = float(np.mean(state.burned | state.quarantined))
            else:
                unavailable = out.burned_fraction
            self._brownout_active = unavailable > threshold
            self._m_brownout.set(1.0 if self._brownout_active else 0.0)
        self._m_rounds.inc()
        self._m_backlog.set(out.backlog)
        self._m_pending.set(self.pending)
        self._m_burned.set(out.burned_fraction)
        self._m_round_s.observe(time.perf_counter() - t0)
        every = self.config.snapshot_every
        if every and int(self._m_rounds.value) % every == 0:
            self.metrics.fire_snapshot_hooks()
        return out.assigned

    def _publish(self, record: Outcomes) -> None:
        self.outcomes = record
        futures = self._futures
        if not futures:
            return
        for tag, outcome in zip(record.tags.tolist(), record.objects()):
            fut = futures.pop(tag, None)
            if fut is not None and not fut.done():
                fut.set_result(outcome)

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Start the tick loop (idempotent).  A full batch already
        queued makes its first round run at once."""
        import asyncio

        if self._kick is None:
            self._kick = asyncio.Event()
            if self._n_pending >= self.config.max_batch:
                self._kick.set()
        if self._ticker is None or self._ticker.done():
            self._accepting = True
            self._ticker = asyncio.get_running_loop().create_task(self._tick_loop())

    async def _tick_loop(self) -> None:
        import asyncio

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
        """Run rounds back-to-back until no caller ball is in flight.

        Returns the rounds used.  Gives up after ``max_rounds`` (a
        stalled no-recovery system never empties) — remaining balls
        stay in flight unless ``max_wait_rounds`` evicts them.
        """
        import asyncio

        rounds = 0
        while self._in_flight and rounds < max_rounds:
            self.run_round()
            rounds += 1
            if rounds % 256 == 0:
                await asyncio.sleep(0)  # stay cooperative on long drains
        return rounds

    async def shutdown(self, final_rounds: int = 0) -> None:
        """Stop ticking; optionally run ``final_rounds`` more rounds, then
        resolve every caller ball still in flight as ``Retry("shutdown")``
        (published as the last :attr:`outcomes`)."""
        import asyncio

        self._accepting = False
        if self._kick is not None:
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
        rejected, self._rejected = self._rejected, []
        queued = self._take_pending()[1]
        alive = self.state.alive_tags
        leftovers = np.sort(np.concatenate([queued, alive[alive >= self._tag_floor]]))
        self._m_retried.inc(leftovers.size)
        self._in_flight = 0
        self._tag_floor = self._next_tag
        self._publish(
            Outcomes.concat(
                [*rejected, Outcomes.unserved(leftovers, RETRY, REASON_SHUTDOWN)]
            )
        )

    def stats(self) -> dict:
        """One-shot state + metrics snapshot (the ``stats`` wire op)."""
        s = self.state
        return {
            "round": s.round_no,
            "backlog": s.backlog,
            "pending": self.pending,
            "in_flight": self.in_flight,
            "burned_fraction": s.burned_fraction,
            "quarantined": s.quarantined_count,
            "brownout": self._brownout_active,
            "dropped_total": s.dropped,
            "assigned_total": s.assigned_total,
            "n_clients": s.n_clients,
            "n_servers": s.n_servers,
            "kernel": s.kernel_name,
            "metrics": self.metrics.snapshot(),
        }

    # -- checkpoint / restore ----------------------------------------------

    def checkpoint(self) -> dict:
        """Everything needed to resume serving with identical accounting.

        Extends :meth:`ServingState.checkpoint` with the service-side
        queue: the next tag, the not-yet-admitted pending balls, and the
        submission-time rejections not yet published.  Taking a
        checkpoint changes nothing.  Futures are process-local and
        cannot travel: the restored service reports every ball through
        :attr:`outcomes`, and the original per-ball callers are expected
        to retry over their own connections.
        """
        owners = self._pending_owners
        tags = self._pending_tags
        rejected = Outcomes.concat(self._rejected)
        return {
            "state": self.state.checkpoint(),
            "next_tag": self._next_tag,
            "pending_owners": np.concatenate(owners) if owners else _NO_TAGS.copy(),
            "pending_tags": np.concatenate(tags) if tags else _NO_TAGS.copy(),
            "rejected": [col.copy() for col in rejected.columns()],
            "health": self._health.state() if self._health is not None else None,
            "shed_acc": self._shed_acc,
            "brownout_active": self._brownout_active,
        }

    @classmethod
    def from_checkpoint(
        cls,
        ckpt: dict,
        config: ServeConfig | None = None,
        registry: MetricsRegistry | None = None,
        *,
        kernel: str | None = None,
    ) -> "SaerService":
        """Rebuild a service resuming exactly where ``ckpt`` left off.

        ``config`` defaults to a fresh :class:`ServeConfig`; pass the
        original one to keep queue policies (and re-attach the same
        :class:`~repro.faults.HealthPolicy`).  Metrics start from zero —
        counters are observability, not protocol state.
        """
        try:
            state_ckpt = ckpt["state"]
        except (TypeError, KeyError):
            raise CheckpointError("not a SaerService checkpoint payload") from None
        state = ServingState.from_checkpoint(state_ckpt, kernel=kernel)
        service = cls(state, config, registry)
        service._next_tag = int(ckpt["next_tag"])
        owners = np.asarray(ckpt["pending_owners"], dtype=np.int64)
        tags = np.asarray(ckpt["pending_tags"], dtype=np.int64)
        if tags.size:
            service._queue(owners, tags)
        # Admitted balls keep their tags inside the state's ball table;
        # the caller ones (tag >= 0) are still in flight.
        service._in_flight += int(np.count_nonzero(state.alive_tags >= 0))
        rejected = Outcomes(*ckpt["rejected"]) if ckpt.get("rejected") else EMPTY_OUTCOMES
        if len(rejected):
            service._rejected = [rejected]
        if service._health is not None and ckpt.get("health") is not None:
            service._health.set_state(ckpt["health"])
        service._shed_acc = float(ckpt.get("shed_acc", 0.0))
        service._brownout_active = bool(ckpt.get("brownout_active", False))
        return service


# ---------------------------------------------------------------------------
# TCP front end
# ---------------------------------------------------------------------------


async def serve_tcp(
    service: SaerService, host: str = "127.0.0.1", port: int = 0
) -> asyncio.AbstractServer:
    """Expose ``service`` over newline-delimited JSON on ``host:port``.

    Also starts the service's tick loop.  Returns the
    ``asyncio.AbstractServer`` (query ``.sockets[0].getsockname()`` for
    the bound port when ``port=0``).  Callers own both lifetimes: close
    the returned server *and* ``await service.shutdown()``.
    """
    import asyncio

    await service.start()

    async def handle(reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        alive = True

        def send(payload: dict) -> None:
            if not alive:
                return  # client went away mid-flight; outcome is discarded
            try:
                writer.write(encode_response(payload))
            except ConnectionError:  # pragma: no cover - race with close
                pass

        def on_ball(rid, ball_idx):
            def cb(fut):
                payload = {"id": rid, "ball": ball_idx}
                payload.update(encode_outcome(fut.result()))
                send(payload)

            return cb

        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    msg = decode_request(line)
                except ProtocolError as exc:
                    send({"id": None, "error": str(exc)})
                    continue
                op = msg["op"]
                if op == "assign":
                    req = msg["request"]
                    try:
                        futs = service.submit(req.client, req.balls)
                    except ValueError as exc:
                        send({"id": req.id, "error": str(exc)})
                        continue
                    for i, fut in enumerate(futs):
                        fut.add_done_callback(on_ball(req.id, i))
                elif op == "metrics":
                    send({"id": msg["id"], "metrics": service.metrics.render_text()})
                elif op == "stats":
                    send({"id": msg["id"], "stats": service.stats()})
                elif op == "ping":
                    send({"id": msg["id"], "pong": True})
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # disconnect mid-flight is a normal client lifecycle
        finally:
            alive = False
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown race
                pass

    return await asyncio.start_server(handle, host, port)


def main(argv=None) -> int:  # pragma: no cover - exercised via CLI tests
    """``repro-lb serve`` entry: boot a TCP service and run until ^C."""
    import argparse
    import asyncio

    from ..dynamic.churn import RewireChurn
    from ..graphs.families import build_point_graph

    parser = argparse.ArgumentParser(
        prog="repro-lb serve",
        description="Serve live SAER assignment traffic over NDJSON/TCP.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7077)
    parser.add_argument("--n", type=int, default=1024, help="clients = servers = n")
    parser.add_argument("--family", default="trust", help="graph family (families.py vocabulary)")
    parser.add_argument("--degree", type=int, default=None, help="client degree (default: canonical)")
    parser.add_argument("--c", type=float, default=2.0)
    parser.add_argument("--d", type=int, default=4)
    parser.add_argument("--recovery", type=int, default=8,
                        help="burn recovery rounds; 0 disables recovery")
    parser.add_argument("--churn", type=float, default=0.0, help="per-round rewire probability")
    parser.add_argument("--tick", type=float, default=0.05, help="seconds between rounds")
    parser.add_argument("--max-batch", type=int, default=4096)
    parser.add_argument("--max-pending", type=int, default=None)
    parser.add_argument("--max-wait-rounds", type=int, default=None)
    parser.add_argument("--kernel", default=None, choices=KERNEL_NAMES)
    parser.add_argument("--seed", type=int, default=None, help="protocol RNG seed")
    parser.add_argument("--graph-seed", type=int, default=1, help="topology seed")
    args = parser.parse_args(argv)

    point = {"family": args.family, "n": args.n}
    if args.degree:
        point["degree"] = args.degree
    graph = build_point_graph(point, args.graph_seed)
    state = ServingState(
        graph,
        args.c,
        args.d,
        recovery=args.recovery or None,
        churn=RewireChurn(args.churn) if args.churn else None,
        seed=args.seed,
        kernel=args.kernel,
        track_tags=True,
    )
    config = ServeConfig(
        tick=args.tick,
        max_batch=args.max_batch,
        max_pending=args.max_pending,
        max_wait_rounds=args.max_wait_rounds,
    )
    service = SaerService(state, config)

    async def run():
        server = await serve_tcp(service, args.host, args.port)
        addr = server.sockets[0].getsockname()
        print(
            f"repro-serve listening on {addr[0]}:{addr[1]} — n={args.n} "
            f"family={args.family} c={args.c} d={args.d} kernel={state.kernel_name} "
            f"tick={args.tick}s max_batch={args.max_batch}",
            flush=True,
        )
        try:
            await server.serve_forever()
        finally:
            server.close()
            await server.wait_closed()
            await service.shutdown()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("shutting down")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
