"""Trial-vectorized engine: R independent protocol runs as one 2-D computation.

Why
---
Every experiment in this repo is a Monte-Carlo estimate built from
hundreds of independent runs, but :func:`repro.core.engine.run_protocol`
executes one trial per call, so a sweep pays the full per-round numpy
dispatch cost — *and* the per-round ``O(n)`` fixed cost (policy state
updates, ``bincount`` clears, degree lookups) — once per trial.  This
engine stacks the trial axis into the arrays themselves: one round of
*all* active trials is a single set of flat-array operations.

How
---
The alive balls of all trials live in two flat arrays, ``ball_trial``
and ``ball_client``, kept sorted trial-major then client-major — the
same canonical order in which the reference engine consumes its random
tape.  Per round:

* per-trial uniforms are drawn from per-trial generators through a
  fixed-block read-ahead (:func:`repro.batch.kernels.fill_uniforms`;
  the ``cext`` gate draws them inside its C round instead), so trial
  ``r`` consumes *exactly* the stream that
  ``run_protocol(seed=seeds[r])`` would;
* destinations come from the shared CSR graph exactly as in
  :func:`repro.core.engine.draw_destinations`;
* Phase-2 decisions are made on the combined key ``trial·n_s + dest``:
  a segmented ``bincount`` over all trials at once (dense path), or a
  sort-based sparse update touching only the (trial, server) pairs that
  received balls this round (late rounds, when alive balls are few);
* accepted balls are dropped by boolean compaction, which preserves the
  canonical order; a trial leaves the active set when its last ball is
  assigned or it hits the round cap.

Compiled kernels
----------------
The whole per-round chain also exists as a fused, cache-blocked
compiled kernel (:mod:`repro.batch.kernels`): pass ``kernel="cext"``
(or set ``REPRO_KERNELS``) to run the gather → count → decide →
compact pipeline compiled.  ``cext`` runs all rounds of a call as one C
call and draws the uniforms inside it (PCG64 states go in and come back
out, so caller-supplied Generators end exactly after the draws they
served); ``python`` runs the same loop nest interpreted, one call per
round.  ``cext`` also skips the rounds of a *starved* trial — one whose remaining balls all
belong to clients with only blocked servers, so that every later round
rejects every ball and changes nothing the result reports.  Such a
trial jumps straight to the round cap: its rounds, work and PCG64
stream advance in closed form, exactly as far as grinding the rounds
would move them.  The other gates grind, and are the oracle.  The compiled
path is **bit-identical** to the numpy path — it is selected per call
and silently falls back to numpy whenever a run shape it does not
support appears (custom policy subclasses, degree-0 clients with
demand, ≥ 2³¹ edges, trials without a Generator of their own on a
``PCG64``).  ``buffers=`` accepts an
:class:`~repro.batch.kernels.EngineBuffers` so sweep workers can keep
one scratch set (staging arrays, received slab, RNG read-ahead) alive
across grid points instead of reallocating per task.

Equivalence contract
--------------------
For matching per-trial seeds (and the default ``with_replacement`` /
non-slot draw mode), trial ``r`` of :func:`run_trials_batched` produces
*bit-identical* results to ``run_protocol(graph, params, policy,
seed=seeds[r])`` — rounds, work, max_load, blocked servers, and the full
per-server load vector — under every kernel implementation.
``tests/test_batch_engine.py`` asserts this trial-for-trial across
policies, demand vectors, and graph families; ``tests/test_kernels.py``
asserts numpy/compiled kernel parity.

Not supported (use the reference engine): per-round traces,
``slot_mode`` tape semantics, and ``without_replacement`` sampling.
"""

from __future__ import annotations

import weakref
from typing import Callable, Sequence, Union

import numpy as np

from ..core.config import ProtocolParams, RunOptions
from ..core.engine import _resolve_demands
from ..errors import NonTerminationError, ProtocolConfigError
from ..graphs.bipartite import BipartiteGraph
from ..rng import make_rng, philox_trial_words, spawn_seeds
from .kernels import (
    RNG_BLOCK,
    EngineBuffers,
    Kernel,
    PHILOX_CHUNK,
    _pcg64_load,
    _pcg64_store,
    block_clients_for,
    fill_uniforms,
    philox_fill,
    resolve_kernel,
    resolve_seed_mode,
    resolve_threads,
)
from .policies import BatchedRaesPolicy, BatchedSaerPolicy, BatchedServerPolicy
from .results import BatchResult

__all__ = ["run_trials_batched", "run_saer_batched", "run_raes_batched"]

BatchPolicyLike = Union[str, BatchedServerPolicy, Callable[[int, int, int], BatchedServerPolicy]]

_BATCH_POLICY_REGISTRY: dict[str, Callable[[int, int, int], BatchedServerPolicy]] = {
    "saer": BatchedSaerPolicy,
    "raes": BatchedRaesPolicy,
}

# Switch to the sparse Phase-2 path once the balls in flight are this
# many times fewer than the dense state slab (A·n_s) they would touch
# (crossover tuned on an n=10⁴, R=64 SAER batch on one core).
_SPARSE_FACTOR = 4


def _make_batch_policy(
    policy: BatchPolicyLike, n_trials: int, n_servers: int, capacity: int
) -> BatchedServerPolicy:
    if isinstance(policy, BatchedServerPolicy):
        return policy
    if isinstance(policy, str):
        try:
            factory = _BATCH_POLICY_REGISTRY[policy.lower()]
        except KeyError:
            raise ProtocolConfigError(
                f"unknown batched policy {policy!r}; known: {sorted(_BATCH_POLICY_REGISTRY)}"
            ) from None
        return factory(n_trials, n_servers, capacity)
    return policy(n_trials, n_servers, capacity)


# The compiled kernels want the CSR tables as int32 (they are guarded
# to n_edges < 2³¹); converting a 10⁵-node graph costs ~100 MB of
# traffic, so the converted tables are cached per graph object.  Keyed
# by id() with a liveness check so a recycled id can never serve a
# stale entry.
_CSR32_CACHE: dict[int, tuple] = {}


def _csr32(graph: BipartiteGraph):
    key = id(graph)
    entry = _CSR32_CACHE.get(key)
    if entry is not None and entry[0]() is graph:
        return entry[1]
    indptr = graph.client_indptr.astype(np.int32, copy=False)
    indices = graph.client_indices.astype(np.int32, copy=False)
    degrees = np.diff(indptr)
    arrays = (indptr, degrees, indices)
    try:
        ref = weakref.ref(graph, lambda _r, k=key: _CSR32_CACHE.pop(k, None))
        _CSR32_CACHE[key] = (ref, arrays)
    except TypeError:  # un-weakref-able graph stand-ins: just don't cache
        pass
    return arrays


def run_trials_batched(
    graph: BipartiteGraph,
    params: ProtocolParams,
    policy: BatchPolicyLike = "saer",
    *,
    n_trials: int | None = None,
    seeds: Sequence | None = None,
    seed=None,
    demands=None,
    options: RunOptions | None = None,
    kernel: str | None = None,
    threads: int | None = None,
    seed_mode: str | None = None,
    buffers: EngineBuffers | None = None,
    faults=None,
) -> BatchResult:
    """Run ``R`` independent trials of one protocol as a single batch.

    Parameters
    ----------
    graph, params, policy:
        Shared topology, ``(c, d)``, and the Phase-2 rule (``"saer"``,
        ``"raes"``, a :class:`BatchedServerPolicy`, or a factory taking
        ``(n_trials, n_servers, capacity)``).
    n_trials / seeds / seed:
        Either pass ``seeds`` (one seed-like per trial — each trial's
        stream is exactly what ``run_protocol(seed=seeds[r])`` would
        consume), or ``n_trials`` plus a root ``seed`` that is spawned
        into per-trial children via :func:`repro.rng.spawn_seeds`.
    demands:
        Optional per-client ball counts in ``[0, d]``, shared by every
        trial (trial randomness is in the destination draws, not the
        demand vector).
    options:
        Round cap and error behaviour, as in the reference engine.  With
        ``raise_on_cap``, :class:`~repro.errors.NonTerminationError` is
        raised if *any* trial hits the cap (carrying the full
        :class:`BatchResult` in ``result``).
    kernel:
        Round-kernel implementation: ``"numpy"`` (default), ``"cext"``
        or ``"python"``; ``None`` reads the
        ``REPRO_KERNELS`` environment variable.  All implementations
        are bit-identical; unavailable ones fall back to numpy with a
        warning.  See :mod:`repro.batch.kernels`.
    threads:
        Kernel thread budget for the ``cext`` run entry: the trial axis
        is partitioned into that many chunks per round and the OpenMP
        build runs them in parallel.  ``None`` reads
        ``REPRO_KERNEL_THREADS``; default 1.  Results are
        **bit-identical at every thread count** — the chunking is data,
        not scheduling.  Ignored by the ``numpy`` and ``python`` gates;
        without an OpenMP build ``cext`` warns once per (gate, threads)
        and runs sequentially.
    seed_mode:
        Seed lineage: ``"pair"`` / ``"direct"`` (synonyms here) run the
        PCG64 per-trial generators; ``"philox"`` switches the uniform
        supply to the counter-based Philox4x32 lineage of
        :mod:`repro.rng` — a *different* deterministic stream with its
        own goldens, bit-identical across every kernel gate, thread
        count, and chunking by construction (each draw is a pure
        function of ``(trial words, round, slot)``).  ``None`` reads
        ``REPRO_SEED_MODE``; default ``pair``.  Philox mode requires
        seed-likes (not pre-built Generators) in ``seeds``.
    buffers:
        Optional :class:`~repro.batch.kernels.EngineBuffers` scratch
        pool, reused across calls (persistent sweep workers pass their
        per-process pool so grid points share one allocation).
    faults:
        Optional :class:`repro.faults.FaultSchedule` of *server* fault
        kinds, wrapped around the built-in ``"saer"`` / ``"raes"``
        policies via :func:`repro.faults.faulty_policy_factory`.  The
        wrapper subclasses force the (bit-identical) numpy decide path,
        so a seeded schedule reproduces exactly across kernel gates and
        thread counts, and an all-``fraction=0`` schedule matches
        ``faults=None`` bit for bit.

    Returns
    -------
    BatchResult
        Per-trial arrays plus the shared scalars; see
        :meth:`BatchResult.to_run_results` for the per-trial adapter.
    """
    if seeds is not None:
        seed_list = list(seeds)
        if n_trials is not None and n_trials != len(seed_list):
            raise ProtocolConfigError(
                f"n_trials={n_trials} disagrees with len(seeds)={len(seed_list)}"
            )
        if seed is not None:
            raise ProtocolConfigError("pass either seeds or a root seed, not both")
    else:
        if n_trials is None:
            raise ProtocolConfigError("pass n_trials (with an optional root seed) or seeds")
        if n_trials < 0:
            raise ProtocolConfigError(f"n_trials must be non-negative; got {n_trials}")
        seed_list = spawn_seeds(seed, n_trials)
    R = len(seed_list)

    opts = options or RunOptions()
    dem = _resolve_demands(graph, params.d, demands)
    total_balls = int(dem.sum())
    n_c, n_s = graph.n_clients, graph.n_servers
    cap = opts.cap_for(max(n_c, n_s))
    # cum_received grows by at most total_balls per round, so this bounds
    # every cumulative counter; loads never exceed capacity.  Narrow
    # state dtypes halve (or quarter) the per-round policy traffic.
    state_dtype = np.int32 if total_balls * max(cap, 1) < 2**31 - 1 else np.int64
    load_dtype = np.int16 if params.capacity < 2**15 - 1 else state_dtype
    if faults is not None:
        if not isinstance(policy, str):
            raise ProtocolConfigError(
                "faults= wraps the built-in 'saer'/'raes' policy names; "
                "pass a pre-wrapped policy instance instead"
            )
        from ..faults.policies import faulty_policy_factory

        policy = faulty_policy_factory(policy.lower(), faults, n_c)
    pol = _make_batch_policy(policy, R, n_s, params.capacity)
    smode = resolve_seed_mode(seed_mode)
    if smode == "philox":
        try:
            words = philox_trial_words(seed_list)
        except TypeError as exc:
            raise ProtocolConfigError(
                f'seed_mode="philox" derives counter words from seed-likes; {exc}'
            ) from None
        gens = None
    else:
        words = None
        gens = [make_rng(s) for s in seed_list]
    # Only a Generator the caller passed can be observed after the run.
    passed = [t for t, s in enumerate(seed_list) if isinstance(s, np.random.Generator)]
    bufs = buffers if buffers is not None else EngineBuffers()

    n_threads = resolve_threads(threads)
    kern = resolve_kernel(kernel, threads=n_threads)
    if kern.compiled and _compiled_supported(kern, graph, pol, dem, n_c, n_s, gens):
        pol.astype_state(state_dtype, state_dtype)
        rounds, work, assigned, alive_total = _run_rounds_compiled(
            kern, graph, pol, dem, total_balls, n_c, n_s, cap, R,
            params.capacity, gens, bufs, state_dtype, n_threads, words, passed,
        )
    else:
        pol.astype_state(state_dtype, load_dtype)
        rounds, work, assigned, alive_total = _run_rounds_numpy(
            graph, pol, dem, total_balls, n_c, n_s, cap, R, gens, bufs,
            state_dtype, words,
        )

    result = BatchResult(
        protocol=pol.name,
        graph_name=graph.name,
        n_clients=n_c,
        n_servers=n_s,
        params=params,
        n_trials=R,
        completed=alive_total == 0,
        rounds=rounds,
        work=work,
        total_balls=total_balls,
        assigned_balls=assigned,
        max_load=pol.max_loads().astype(np.int64),
        blocked_servers=pol.blocked_counts().astype(np.int64),
        loads=pol.loads.astype(np.int64) if opts.record_loads else None,
        seed_infos=[repr(s) for s in seed_list],
    )
    if opts.raise_on_cap and not result.completed.all():
        incomplete = int((~result.completed).sum())
        raise NonTerminationError(
            f"{pol.name}: {incomplete}/{R} trials did not finish within {cap} rounds",
            result=result,
        )
    return result


def _compiled_supported(
    kern: Kernel, graph: BipartiteGraph, pol: BatchedServerPolicy, dem, n_c, n_s,
    gens=None,
) -> bool:
    """Whether this run's shape fits the fused compiled kernels.

    The compiled path implements exactly the built-in SAER/RAES rules
    (a policy subclass may override ``decide_*``, so only the exact
    types qualify), needs int32-addressable CSR tables, and does not
    reproduce the numpy path's clip semantics for degree-0 clients
    that somehow carry demand.  The ``cext`` run entry steps each
    trial's PCG64 state in C, so PCG64-lineage trials must each own a
    ``np.random.PCG64`` (one rule for every compiled gate).  Anything
    else falls back to numpy — same results, just without the fusion.
    """
    if type(pol) not in (BatchedSaerPolicy, BatchedRaesPolicy):
        return False
    if gens is not None:
        bitgens = [g.bit_generator for g in gens]
        if len({id(b) for b in bitgens}) < len(bitgens):
            return False
        if any(type(b) is not np.random.PCG64 for b in bitgens):
            return False
    if n_c <= 0 or n_s <= 0 or graph.n_edges <= 0:
        return False
    if graph.n_edges >= 2**31 - 1 or n_s >= 2**31 - 1:
        return False
    _indptr, degrees, _indices = _csr32(graph)
    if bool(np.any((degrees == 0) & (dem > 0))):
        return False
    return True


def _run_rounds_compiled(
    kern, graph, pol, dem, total_balls, n_c, n_s, cap, R, capacity, gens,
    bufs, state_dtype, threads=1, words=None, passed=(),
):
    """Rounds over the fused compiled kernel.

    A gate with a whole-run entry (``cext``,
    :meth:`~repro.batch.kernels.Kernel.run_round_fn`) runs every round
    in one call and draws each trial's uniforms inside it: from its
    PCG64 state, copied in before the call and written back after it to
    the Generators the caller passed (trials ``passed``; one built here
    from a seed-like is never read again), or (``words is not None``)
    from its Philox words.  After a round in which a trial accepted no
    ball, the run entry checks whether each of its remaining balls'
    clients sees only blocked servers (the predicates of
    ``blocked_counts()``): first with a per-trial server cursor over its
    state row, which settles it once every server is blocked, else by
    walking a per-(trial, client) neighbour cursor in the
    ``[R, n_clients]`` int32 ``ccursor`` scratch.  If so, the trial
    takes the ``k = cap - round`` rounds left in closed form
    (``rounds += k``, ``work += 2·alive·k``, its PCG64 row jumped ahead
    ``alive·k`` draws) and drops out with its balls alive: the outputs
    are those of grinding to the cap.  With
    ``threads > 1`` the run entry partitions the trial axis into
    ``threads`` balanced chunks per round, each on its own scratch row —
    bit-identical to one thread (the partition and the survivor
    left-pack are data, not scheduling).

    A gate without a run entry (``python``) takes one sequential call
    per round over a uniform slab from :func:`fill_uniforms` or
    :func:`philox_fill`, grinds, and ignores ``threads``.
    """
    indptr, degrees, indices = _csr32(graph)
    reg_deg = 0
    if degrees.size and int(degrees.min()) == int(degrees.max()):
        reg_deg = int(degrees[0])
    if reg_deg:
        template = np.repeat(np.arange(n_c, dtype=np.int32) * np.int32(reg_deg), dem)
    else:
        template = np.repeat(np.arange(n_c, dtype=np.int32), dem)
    block_clients = block_clients_for(n_c, graph.n_edges)

    rounds = np.zeros(R, dtype=np.int64)
    work = np.zeros(R, dtype=np.int64)
    assigned = np.zeros(R, dtype=np.int64)
    alive_total = np.full(R, total_balls, dtype=np.int64)

    B0 = total_balls * R
    dest_buf = bufs.get("cdest", B0, np.int32)
    ball_key = bufs.get("cball", B0, np.int32)
    alt_buf = bufs.get("calt", B0, np.int32)
    if R:
        ball_key.reshape(R, total_balls)[:] = template
    if isinstance(pol, BatchedSaerPolicy):
        state1, state2, is_raes = pol.cum_received, pol.loads, 0
    else:
        state1, state2, is_raes = pol.loads, pol.loads, 1

    run_fn = kern.run_round_fn(threads if R > 1 else 1)
    if run_fn is not None:
        T = max(1, min(threads, R))
        pcg = None
        if words is None:
            pcg = bufs.get("cpcg", (R, 4), np.uint64)
            _pcg64_load(gens, pcg)
        run_fn(
            pcg, words, bufs.get("cuchunk", (R, PHILOX_CHUNK), np.float64),
            ball_key, alt_buf, dest_buf, total_balls, cap, reg_deg, indptr,
            degrees, indices, n_c, block_clients, state1, state2, capacity,
            is_raes, bufs.get("ccount", (T, n_s), state_dtype, zero=True),
            bufs.get("ctouched", (T, n_s), np.int32),
            bufs.get("cacc", (T, n_s), np.uint8, zero=True),
            bufs.get("cws", 9 * R + T + 1, np.int64),
            bufs.get("ccursor", (R, n_c), np.int32),
            rounds, work, assigned, alive_total,
        )
        if pcg is not None and passed:
            _pcg64_store([gens[t] for t in passed], pcg[passed])
        return rounds, work, assigned, alive_total

    if total_balls and R:
        active = np.arange(R, dtype=np.int64)
        sent = np.full(R, total_balls, dtype=np.int64)
    else:
        active = np.empty(0, dtype=np.int64)
        sent = np.empty(0, dtype=np.int64)

    u_buf = bufs.get("u", B0, np.float64)
    count = bufs.get("ccount", n_s, state_dtype, zero=True)
    touched = bufs.get("ctouched", n_s, np.int32)
    acc = bufs.get("cacc", n_s, np.uint8, zero=True)
    round_fn = kern.round_fn()
    n_acc_buf = bufs.get("cnacc", R, np.int64)
    cur = bufs.get("ccur", R, np.int64)
    seg_start = bufs.get("cseg0", R, np.int64)
    seg_end = bufs.get("cseg1", R, np.int64)
    if words is None:
        slab = bufs.get("rng_slab", (R, RNG_BLOCK), np.float64)
        slab_pos = bufs.get("rng_pos", R, np.int64)
        slab_pos[:] = RNG_BLOCK  # empty: streams are fresh per engine call

    round_no = 0
    B = ball_key.size if active.size else 0
    while active.size:
        round_no += 1
        A = active.size
        rounds[active] += 1
        work[active] += 2 * sent
        do_compact = 1 if round_no < cap else 0
        u = u_buf[:B]
        if words is not None:
            philox_fill(u, active, sent, words, round_no)
        else:
            fill_uniforms(u, active, sent, gens, slab, slab_pos)
        n_acc = n_acc_buf[:A]
        B_next = int(
            round_fn(
                u, ball_key, active, sent, reg_deg, indptr, degrees, indices,
                n_c, block_clients, state1, state2, capacity, is_raes,
                dest_buf[:B], count, touched, acc, n_acc, alt_buf,
                do_compact, cur[:A], seg_start[:A], seg_end[:A],
            )
        )
        assigned[active] += n_acc
        alive_total[active] -= n_acc
        sent = sent - n_acc
        if not do_compact:
            # Trials with balls left stop here with rounds == cap.
            break
        ball_key, alt_buf = alt_buf, ball_key
        B = B_next
        still = sent > 0
        if not still.all():
            active = active[still]
            sent = sent[still]
    return rounds, work, assigned, alive_total


def _run_rounds_numpy(
    graph, pol, dem, total_balls, n_c, n_s, cap, R, gens, bufs, state_dtype,
    words=None,
):
    """The vectorized reference round loop (the ``numpy`` kernel).

    ``words is not None`` selects the philox lineage: Phase-0 becomes
    :func:`repro.batch.kernels.philox_fill` (stateless counter draws,
    C-accelerated when a compiler exists) and the per-trial generators
    and RNG read-ahead slab are never touched.
    """
    # Narrow index dtypes cut memory traffic on the per-ball passes (the
    # engine's dominant cost): edge offsets need to span n_edges (int32
    # for any feasible simulation), while client/server ids usually fit
    # int16, which also keeps the gathered CSR indices table L2/L3
    # resident.  All three fall back to wider types for huge inputs.
    # astype(copy=False) skips the copy whenever the graph's arrays
    # already have the target dtype (they are only ever read here).
    base_dtype = np.int32 if graph.n_edges < 2**31 - 1 else np.int64
    client_dtype = np.int16 if n_c < 2**15 - 1 else base_dtype
    server_dtype = np.int16 if n_s < 2**15 - 1 else base_dtype
    indptr = graph.client_indptr.astype(base_dtype, copy=False)
    indices = graph.client_indices.astype(server_dtype, copy=False)
    degrees = np.diff(indptr).astype(server_dtype, copy=False)  # a degree is at most n_s
    # Regular graphs (the paper's main family) need no per-ball degree or
    # indptr gathers: N(v)[j] sits at the closed form v·Δ + j.
    reg_deg = 0
    if n_c and degrees.size and int(degrees.min()) == int(degrees.max()):
        reg_deg = int(degrees[0])

    # Alive balls of all trials, flat and sorted trial-major then
    # client-major (the canonical tape order).  The trial axis is kept
    # implicit: `active` (global trial ids) and `sent` (per-trial alive
    # counts) delimit consecutive segments of the per-ball array; boolean
    # compaction preserves both the segmentation and the canonical order.
    # Regular graphs carry each ball's CSR row start v·Δ directly (saves
    # a per-ball multiply every round); irregular graphs carry client ids.
    if reg_deg:
        template = np.repeat(np.arange(n_c, dtype=base_dtype) * base_dtype(reg_deg), dem)
        ball_dtype = base_dtype
    else:
        template = np.repeat(np.arange(n_c, dtype=client_dtype), dem)
        ball_dtype = client_dtype

    rounds = np.zeros(R, dtype=np.int64)
    work = np.zeros(R, dtype=np.int64)
    assigned = np.zeros(R, dtype=np.int64)
    alive_total = np.full(R, total_balls, dtype=np.int64)

    if total_balls and R:
        active = np.arange(R, dtype=np.int64)
        sent = np.full(R, total_balls, dtype=np.int64)
    else:
        active = np.empty(0, dtype=np.int64)
        sent = np.empty(0, dtype=np.int64)

    # All round-loop scratch lives in buffers sized to the first round
    # (the largest) and sliced per round: repeated multi-MB allocations
    # cost real page-fault time at scale.  The buffers come from
    # the (optionally persistent) EngineBuffers pool, so sweep workers
    # reuse one allocation across grid points.
    B0 = total_balls * R
    u_buf = bufs.get("u", B0, np.float64)
    off_buf = bufs.get("off", B0, server_dtype)
    base_buf = bufs.get("base", B0, base_dtype)
    dest_buf = bufs.get("dest", B0, server_dtype)
    keep_buf = bufs.get("keep", B0, bool)
    ball_full = bufs.get("ball", B0, ball_dtype)
    alt_full = bufs.get("alt", B0, ball_dtype)  # compaction ping-pong partner
    if R:
        ball_full.reshape(R, total_balls)[:] = template
    if words is None:
        slab = bufs.get("rng_slab", (R, RNG_BLOCK), np.float64)
        slab_pos = bufs.get("rng_pos", R, np.int64)
        slab_pos[:] = RNG_BLOCK  # empty: streams are fresh per engine call
    ball_key = ball_full[: B0 if active.size else 0]
    # The R × n_s received slab is the engine's largest allocation, but
    # only the dense Phase-2 path reads it — sparse-dominated runs (big
    # R·n_s, small ball counts) never should pay for it.  Allocate on
    # first dense use.
    received_buf: np.ndarray | None = None

    # Every trial has been active in every round so far (trials leave the
    # active set for good), so one scalar round counter serves them all.
    round_no = 0
    while active.size:
        round_no += 1
        A = active.size
        B = ball_key.size
        rounds[active] += 1
        work[active] += 2 * sent

        # Phase 1: per-trial uniforms — trial r consumes exactly the
        # stream run_protocol(seed=seeds[r]) would (PCG64 mode), or the
        # counter-determined philox stream — then the shared-graph
        # destination map of Algorithm 1 line 3, fused over all trials.
        u = u_buf[:B]
        if words is not None:
            philox_fill(u, active, sent, words, round_no)
        else:
            fill_uniforms(u, active, sent, gens, slab, slab_pos)
        offsets = off_buf[:B]
        base = base_buf[:B]
        dest = dest_buf[:B]
        if reg_deg:
            np.multiply(u, reg_deg, out=u)
            np.copyto(offsets, u, casting="unsafe")
            np.minimum(offsets, reg_deg - 1, out=offsets)
            np.add(ball_key, offsets, out=base)
        else:
            deg = degrees[ball_key]
            np.multiply(u, deg, out=u)
            np.copyto(offsets, u, casting="unsafe")
            np.minimum(offsets, deg - 1, out=offsets)
            np.take(indptr, ball_key, out=base, mode="clip")
            base += offsets
        np.take(indices, base, out=dest, mode="clip")

        # Phase 2, over the combined (trial, server) key space.  `keep`
        # is the per-ball survival mask (= rejected by its server).
        keep = keep_buf[:B]
        if B * _SPARSE_FACTOR < A * n_s:
            key_dtype = np.int32 if R * n_s < 2**31 - 1 else np.int64
            keys = np.repeat((active * n_s).astype(key_dtype), sent) + dest
            ball_ok = pol.decide_sparse(keys)
            np.logical_not(ball_ok, out=keep)
            starts = np.zeros(A, dtype=np.int64)
            np.cumsum(sent[:-1], out=starts[1:])
            n_acc = np.add.reduceat(ball_ok.astype(np.int64), starts)
        else:
            if received_buf is None:
                received_buf = bufs.get("received", (R, n_s), state_dtype)
            received = received_buf[:A]
            n_acc = np.empty(A, dtype=np.int64)
            pos = 0
            for a, k in enumerate(sent):
                received[a] = np.bincount(dest[pos : pos + k], minlength=n_s)
                pos += k
            accept = pol.decide_dense(active, received)
            reject = ~accept
            pos = 0
            for a, k in enumerate(sent):
                np.take(reject[a], dest[pos : pos + k], out=keep[pos : pos + k])
                n_acc[a] = k - np.count_nonzero(keep[pos : pos + k])
                pos += k

        assigned[active] += n_acc
        alive_total[active] -= n_acc
        sent = sent - n_acc
        if round_no >= cap:
            # Trials with balls left stop here with rounds == cap.
            break
        B_next = int(sent.sum())
        np.compress(keep, ball_key, out=alt_full[:B_next])
        ball_full, alt_full = alt_full, ball_full
        ball_key = ball_full[:B_next]
        still = sent > 0
        if not still.all():
            active = active[still]
            sent = sent[still]
    return rounds, work, assigned, alive_total


def run_saer_batched(
    graph: BipartiteGraph,
    c: float,
    d: int,
    *,
    n_trials: int | None = None,
    seeds: Sequence | None = None,
    seed=None,
    demands=None,
    options: RunOptions | None = None,
    kernel: str | None = None,
    threads: int | None = None,
    seed_mode: str | None = None,
    buffers: EngineBuffers | None = None,
    faults=None,
) -> BatchResult:
    """Batched ``saer(c, d)``; see :func:`run_trials_batched`."""
    return run_trials_batched(
        graph,
        ProtocolParams(c=c, d=d),
        "saer",
        n_trials=n_trials,
        seeds=seeds,
        seed=seed,
        demands=demands,
        options=options,
        kernel=kernel,
        threads=threads,
        seed_mode=seed_mode,
        buffers=buffers,
        faults=faults,
    )


def run_raes_batched(
    graph: BipartiteGraph,
    c: float,
    d: int,
    *,
    n_trials: int | None = None,
    seeds: Sequence | None = None,
    seed=None,
    demands=None,
    options: RunOptions | None = None,
    kernel: str | None = None,
    threads: int | None = None,
    seed_mode: str | None = None,
    buffers: EngineBuffers | None = None,
    faults=None,
) -> BatchResult:
    """Batched ``raes(c, d)``; see :func:`run_trials_batched`."""
    return run_trials_batched(
        graph,
        ProtocolParams(c=c, d=d),
        "raes",
        n_trials=n_trials,
        seeds=seeds,
        seed=seed,
        demands=demands,
        options=options,
        kernel=kernel,
        threads=threads,
        seed_mode=seed_mode,
        buffers=buffers,
        faults=faults,
    )
