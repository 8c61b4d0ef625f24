"""repro.serve — the live-traffic serving layer.

The dynamic-SAER protocol of :mod:`repro.dynamic`, turned outward: a
server process that accepts assignment requests as they arrive, batches
them into synchronous protocol rounds (every ``tick`` seconds or
``max_batch`` balls, whichever first), and answers each ball with the
server it landed on and how many rounds it waited.  The round step is
the *same* :class:`ServingState` the offline simulator drives — one
implementation, two harnesses — so serving behaviour can never drift
from the E12 tables.

Layers, bottom up:

:mod:`~repro.serve.state`
    :class:`ServingState` — mutable server-side SAER state (cumulative
    counts, burn/recovery clocks, churn-able neighborhoods, alive-ball
    table), with the round step routed through the batched engine's
    kernel gates.
:mod:`~repro.serve.service`
    :class:`SaerService` — asyncio micro-batching loop over ball
    batches: ``submit_many`` ingests arrays of requests and each round
    publishes an :class:`Outcomes` record; per-ball futures exist only
    for ``submit`` callers such as :func:`serve_tcp`, the
    NDJSON-over-TCP front end (stdlib only).
:mod:`~repro.serve.protocol`
    Wire types (:class:`AssignRequest`, :class:`Assigned`,
    :class:`Retry`, :class:`Dropped`), the columnar
    :class:`Outcomes` record, and the NDJSON codec.
:mod:`~repro.serve.metrics`
    Counter/gauge/histogram registry with Prometheus
    text exposition and periodic snapshot hooks.
:mod:`~repro.serve.loadgen`
    Open-loop load generator replaying arrival traces in-process or
    over TCP, emitting a JSON report (``--out``).

Robustness: pass a :class:`~repro.faults.FaultSchedule` to
``ServingState(faults=...)`` to overlay crashes / stalls / Byzantine
participants; set ``ServeConfig(health=HealthPolicy(...))`` and
``brownout_threshold=`` to turn on the self-healing loop (quarantine +
readmission + load shedding); ``SaerService.checkpoint()`` /
``from_checkpoint()`` survive a kill with identical accounting.

Quickstart (in-process)::

    import asyncio, repro
    from repro.serve import SaerService, ServeConfig, ServingState

    g = repro.graphs.trust_subsets(1024, 1024, 16, seed=1)
    state = ServingState(g, c=2.0, d=4, recovery=8, seed=7, track_tags=True)
    svc = SaerService(state, ServeConfig(tick=0.01, max_batch=512))

    async def demo():
        await svc.start()
        fut = svc.submit(client=17)[0]
        outcome = await fut.wait()          # Assigned(server=..., latency_rounds=...)
        await svc.shutdown()
        return outcome

    print(asyncio.run(demo()))

Or from a shell: ``repro-lb serve --n 4096 --port 7077`` then
``repro-lb loadgen --mode tcp --port 7077``.
"""

from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .protocol import (
    Assigned,
    AssignRequest,
    Dropped,
    Outcomes,
    ProtocolError,
    Retry,
    decode_request,
    decode_response,
    encode_outcome,
    encode_response,
)
from .service import BallFuture, SaerService, ServeConfig, serve_tcp
from .state import RoundOutcome, ServingState

__all__ = [
    "ServingState",
    "RoundOutcome",
    "SaerService",
    "ServeConfig",
    "BallFuture",
    "serve_tcp",
    "AssignRequest",
    "Assigned",
    "Retry",
    "Dropped",
    "Outcomes",
    "ProtocolError",
    "decode_request",
    "decode_response",
    "encode_outcome",
    "encode_response",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]
