"""The synchronous round engine implementing model M (§2.1), vectorized.

One round = Phase 1 (every client submits each alive ball to a uniform
random neighbor, with replacement) + Phase 2 (each server applies its
policy to the batch it received and answers accept/reject).  The engine
is generic over the server policy, so SAER and RAES share all of this.

Vectorization strategy (per the HPC guide: no per-ball Python loops):

* senders for the round: ``np.repeat(arange(n_clients), alive)``;
* destinations: one uniform per ball, mapped to the sender's CSR
  neighbor row via ``indices[indptr[v] + ⌊u·Δ_v⌋]``;
* per-server batch sizes: ``np.bincount``;
* per-ball accept bit: a single gather ``accept_mask[dest]``.

Randomness is a :class:`~repro.rng.RandomTape` consumed in the canonical
order (round-major, client index, ball slot), so the agent simulator in
:mod:`repro.agents` can replay identical executions — that equivalence
is tested, which is what lets this fast path *be* the reference
implementation of model M.

Two draw modes:

* ``slot_mode=False`` (default): only alive balls consume tape values —
  cheapest, used for all performance work.
* ``slot_mode=True``: every ball slot consumes one value per round
  whether alive or not, mirroring the paper's definition of
  ``z_t^(i)(v,u)`` "at every round … even when the corresponding request
  has already been accepted".  This is the mode that makes the SAER/RAES
  coupling of Corollary 2 exact (see :mod:`repro.core.coupling`).
"""

from __future__ import annotations

from typing import Callable, Union

import numpy as np

from ..errors import GraphValidationError, NonTerminationError, ProtocolConfigError
from ..graphs.bipartite import BipartiteGraph
from ..rng import RandomTape
from .config import ProtocolParams, RunOptions
from .metrics import Trace, TraceLevel
from .policies import RaesPolicy, SaerPolicy, ServerPolicy
from .results import RunResult

__all__ = [
    "run_protocol",
    "run_saer",
    "run_raes",
    "draw_destinations",
    "draw_destinations_distinct",
]

PolicyLike = Union[str, ServerPolicy, Callable[[int, int], ServerPolicy]]

_POLICY_REGISTRY: dict[str, Callable[[int, int], ServerPolicy]] = {
    "saer": SaerPolicy,
    "raes": RaesPolicy,
}


def _make_policy(policy: PolicyLike, n_servers: int, capacity: int) -> ServerPolicy:
    if isinstance(policy, ServerPolicy):
        return policy
    if isinstance(policy, str):
        try:
            factory = _POLICY_REGISTRY[policy.lower()]
        except KeyError:
            raise ProtocolConfigError(
                f"unknown policy {policy!r}; known: {sorted(_POLICY_REGISTRY)}"
            ) from None
        return factory(n_servers, capacity)
    return policy(n_servers, capacity)


def _resolve_demands(graph: BipartiteGraph, d: int, demands) -> np.ndarray:
    """Per-client ball counts; defaults to ``d`` everywhere (Algorithm 1).

    The paper allows "*at most* d" balls per client; pass ``demands`` to
    exercise that general case.
    """
    if demands is None:
        dem = np.full(graph.n_clients, d, dtype=np.int64)
    else:
        dem = np.asarray(demands, dtype=np.int64)
        if dem.shape != (graph.n_clients,):
            raise ProtocolConfigError(
                f"demands must have shape ({graph.n_clients},); got {dem.shape}"
            )
        if np.any(dem < 0) or np.any(dem > d):
            raise ProtocolConfigError("demands must lie in [0, d]")
    starving = (graph.client_degrees == 0) & (dem > 0)
    if np.any(starving):
        raise GraphValidationError(
            f"{int(starving.sum())} clients have balls but no neighbors; "
            "the protocol could never terminate"
        )
    return dem


def draw_destinations(
    graph: BipartiteGraph,
    senders: np.ndarray,
    uniforms: np.ndarray,
) -> np.ndarray:
    """Map per-ball uniforms to server destinations.

    Ball ``i`` from client ``senders[i]`` with uniform ``u`` goes to
    ``N(senders[i])[⌊u·Δ⌋]`` — the with-replacement uniform choice of
    Algorithm 1 line 3.  The ``min`` guards the (measure-zero in theory,
    possible in floating point) case ``⌊u·Δ⌋ == Δ``.
    """
    deg = graph.client_degrees[senders]
    offsets = np.minimum((uniforms * deg).astype(np.int64), deg - 1)
    return graph.client_indices[graph.client_indptr[senders] + offsets]


def draw_destinations_distinct(
    graph: BipartiteGraph,
    clients: np.ndarray,
    counts: np.ndarray,
    uniforms: np.ndarray,
) -> np.ndarray:
    """Per-client *distinct* destinations (the ablation A3 variant).

    Algorithm 1 samples with replacement; this variant gives each client
    a partial Fisher–Yates draw over its neighbor row, so a round's
    requests from one client go to distinct servers (wrapping to a fresh
    pass if a client has more alive balls than neighbors).  Consumes
    exactly one uniform per ball, in the same canonical order as
    :func:`draw_destinations`.

    Implemented as a *segmented* partial Fisher–Yates: the per-ball loop
    runs over ball slots ``j < max(counts)`` only (``counts`` are
    bounded by the demand ``d``), with every client advanced in one
    whole-array step per slot.  Bit-identical to the per-client
    reference loop in ``tests/test_ablations.py`` under matching
    uniforms — the swap state lives in a ``(clients, max_degree)``
    index matrix, so memory is ``O(active_clients · Δ_max)``.
    """
    clients = np.asarray(clients, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if uniforms.size != total:
        raise ValueError(f"need {total} uniforms, got {uniforms.size}")
    if total == 0:
        return np.empty(0, dtype=np.int64)
    degs = graph.client_degrees[clients].astype(np.int64)
    if np.any((degs == 0) & (counts > 0)):
        # The reference loop dies on `j % 0` here; fail loudly instead of
        # letting numpy's 0-degree modulo read another client's row.
        raise GraphValidationError("a client with no neighbors cannot draw destinations")
    deg_max = int(degs.max())
    starts = np.cumsum(counts) - counts
    idx = np.broadcast_to(np.arange(deg_max, dtype=np.int64), (clients.size, deg_max)).copy()
    dest = np.empty(total, dtype=np.int64)
    row_base = graph.client_indptr[clients]
    for j in range(int(counts.max())):
        act = np.flatnonzero(counts > j)
        dj = degs[act]
        jj = j % dj
        if j:
            wrap = act[jj == 0]
            if wrap.size:  # fresh Fisher–Yates pass for wrapped clients
                idx[wrap] = np.arange(deg_max, dtype=np.int64)
        u = uniforms[starts[act] + j]
        span = dj - jj
        pick = jj + np.minimum((u * span).astype(np.int64), span - 1)
        a = idx[act, jj]
        b = idx[act, pick]
        idx[act, pick] = a
        idx[act, jj] = b
        dest[starts[act] + j] = graph.client_indices[row_base[act] + b]
    return dest


def run_protocol(
    graph: BipartiteGraph,
    params: ProtocolParams,
    policy: PolicyLike = "saer",
    *,
    seed=None,
    tape: RandomTape | None = None,
    demands=None,
    options: RunOptions | None = None,
    trace: TraceLevel = TraceLevel.NONE,
    slot_mode: bool = False,
    sampling: str = "with_replacement",
) -> RunResult:
    """Execute one protocol run; see module docstring for semantics.

    Parameters
    ----------
    graph, params, policy:
        Topology, ``(c, d)``, and the Phase-2 rule (``"saer"``,
        ``"raes"``, a :class:`ServerPolicy` instance, or a factory).
    seed / tape:
        Provide exactly one source of randomness; ``tape`` allows exact
        replay across engines.
    demands:
        Optional per-client ball counts in ``[0, d]``.
    options:
        Round cap and error behaviour (:class:`RunOptions`).
    trace:
        Per-round recording level (:class:`TraceLevel`).
    slot_mode:
        Tape-consumption convention; see module docstring.
    sampling:
        ``"with_replacement"`` (Algorithm 1) or ``"without_replacement"``
        (the A3 ablation: a client's per-round requests go to distinct
        servers).  The latter is incompatible with ``slot_mode``.

    Returns
    -------
    RunResult
        With ``completed=False`` when the round cap was hit (unless
        ``options.raise_on_cap``).
    """
    if tape is not None and seed is not None:
        raise ProtocolConfigError("pass either seed or tape, not both")
    if sampling not in ("with_replacement", "without_replacement"):
        raise ProtocolConfigError(f"unknown sampling mode {sampling!r}")
    if sampling == "without_replacement" and slot_mode:
        raise ProtocolConfigError("without_replacement sampling is incompatible with slot_mode")
    opts = options or RunOptions()
    dem = _resolve_demands(graph, params.d, demands)
    total_balls = int(dem.sum())
    n_c, n_s = graph.n_clients, graph.n_servers
    pol = _make_policy(policy, n_s, params.capacity)
    tp = tape if tape is not None else RandomTape(seed)
    cap = opts.cap_for(max(n_c, n_s))

    tr = Trace(level=trace)
    tr.bind(graph, params)

    slot_client = np.repeat(np.arange(n_c, dtype=np.int64), dem)
    slot_alive = np.ones(total_balls, dtype=bool)
    alive_per_client = dem.copy()  # used only in fast mode

    assigned = 0
    work = 0
    rounds = 0
    while assigned < total_balls and rounds < cap:
        rounds += 1
        if slot_mode:
            u_all = tp.draw(total_balls)
            send_idx = np.flatnonzero(slot_alive)
            senders = slot_client[send_idx]
            u = u_all[send_idx]
        else:
            senders = np.repeat(np.arange(n_c, dtype=np.int64), alive_per_client)
            u = tp.draw(senders.size)
            send_idx = None
        n_sent = senders.size
        if sampling == "without_replacement":
            active = np.flatnonzero(alive_per_client)
            dest = draw_destinations_distinct(
                graph, active, alive_per_client[active], u
            )
        else:
            dest = draw_destinations(graph, senders, u)
        received = np.bincount(dest, minlength=n_s)
        accept_mask = pol.decide(received)
        ball_ok = accept_mask[dest]
        n_acc = int(np.count_nonzero(ball_ok))
        if slot_mode:
            slot_alive[send_idx[ball_ok]] = False
        else:
            acc_per_client = np.bincount(senders[ball_ok], minlength=n_c)
            alive_per_client -= acc_per_client
        alive_before = total_balls - assigned
        assigned += n_acc
        work += 2 * n_sent
        tr.record_round(
            alive_before=alive_before,
            requests=n_sent,
            accepted=n_acc,
            newly_blocked=pol.newly_burned_last_round,
            blocked_mask=pol.blocked_mask() if trace is not TraceLevel.NONE else None,
            received=received,
            work_cum=work,
        )

    completed = assigned == total_balls
    result = RunResult(
        protocol=pol.name,
        graph_name=graph.name,
        n_clients=n_c,
        n_servers=n_s,
        params=params,
        completed=completed,
        rounds=rounds,
        work=work,
        total_balls=total_balls,
        assigned_balls=assigned,
        alive_balls=total_balls - assigned,
        max_load=pol.max_load,
        blocked_servers=int(pol.blocked_mask().sum()),
        loads=pol.loads.copy() if opts.record_loads else None,
        trace=tr.finalize() if trace is not TraceLevel.NONE else None,
        seed_info=repr(seed) if seed is not None else "tape",
    )
    if not completed and opts.raise_on_cap:
        raise NonTerminationError(
            f"{pol.name} did not finish within {cap} rounds "
            f"({result.alive_balls}/{total_balls} balls alive)",
            result=result,
        )
    return result


def run_saer(
    graph: BipartiteGraph,
    c: float,
    d: int,
    *,
    seed=None,
    tape: RandomTape | None = None,
    demands=None,
    options: RunOptions | None = None,
    trace: TraceLevel = TraceLevel.NONE,
    slot_mode: bool = False,
    sampling: str = "with_replacement",
) -> RunResult:
    """Run ``saer(c, d)`` (Algorithm 1) on ``graph``; see :func:`run_protocol`."""
    return run_protocol(
        graph,
        ProtocolParams(c=c, d=d),
        "saer",
        seed=seed,
        tape=tape,
        demands=demands,
        options=options,
        trace=trace,
        slot_mode=slot_mode,
        sampling=sampling,
    )


def run_raes(
    graph: BipartiteGraph,
    c: float,
    d: int,
    *,
    seed=None,
    tape: RandomTape | None = None,
    demands=None,
    options: RunOptions | None = None,
    trace: TraceLevel = TraceLevel.NONE,
    slot_mode: bool = False,
    sampling: str = "with_replacement",
) -> RunResult:
    """Run ``raes(c, d)`` [4] on ``graph``; see :func:`run_protocol`."""
    return run_protocol(
        graph,
        ProtocolParams(c=c, d=d),
        "raes",
        seed=seed,
        tape=tape,
        demands=demands,
        options=options,
        trace=trace,
        slot_mode=slot_mode,
        sampling=sampling,
    )
