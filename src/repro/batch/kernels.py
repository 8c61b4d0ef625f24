"""Round kernels for the batched engine: numpy reference + compiled paths.

The batched engine's per-round hot loop — per-trial uniform fill, the
Phase-1 destination gather, the Phase-2 count/decide, and survivor
compaction — lives here behind a small registry so the same engine can
run it three ways:

``numpy``
    The vectorized reference implementation (the default, and the
    bit-stability baseline).  The engine's own round loop *is* this
    kernel; :mod:`repro.batch.engine` asks the registry only whether to
    take the compiled fast path.
``cext``
    A fused, cache-blocked C implementation of the whole
    gather→count→decide→compact chain (``_kernels.c``), compiled on
    demand with the system C compiler and loaded via :mod:`ctypes`.
    One call runs a whole engine call — every round of every trial —
    and draws each trial's uniforms inside the round, from its PCG64
    state (eight AVX-512 lanes of the stream at once where the native
    build has them, with the scalar loop's bits) or its Philox words;
    the CSR adjacency streams through cache once per round instead of
    once per trial.  A trial whose remaining balls see only blocked
    servers jumps to the round cap in closed form instead of grinding
    there (the other gates grind).  One more call runs a serving round
    (:meth:`Kernel.serve_round_fn`).
``python``
    :func:`_round_loops`, the C round's loop nest executed by the
    interpreter, one call per round over a uniform slab — far too slow
    for real workloads, but it is the readable specification of the
    compiled algorithm and lets the parity suite exercise it on any
    install (no compiler).

Every implementation is **bit-identical** to the numpy path: same
uniforms consumed in the same canonical (trial-major, client-major)
order, same accept decisions, same policy state, same survivor order.
``tests/test_kernels.py`` asserts this per trial.

Selection is a runtime gate: the ``kernel=`` argument to
:func:`repro.batch.run_trials_batched` wins, else the ``REPRO_KERNELS``
environment variable, else ``numpy``.  Requesting an unavailable
implementation (no C compiler) warns once and falls back to numpy —
minimal installs never break, they just don't accelerate.

Threading
---------
The C run entry is **trial-partitioned**: each round splits the active
trials into balanced chunks, each chunk runs the whole
gather→count→decide→compact chain independently on its own scratch
row, and a deterministic left-pack restores the canonical (trial-major,
client-major) survivor layout.  Because chunk boundaries, per-trial
uniform streams, and output offsets are all data — never scheduling —
results are **byte-identical for every thread count**, including 1.
The thread budget is its own gate: ``threads=`` argument >
``REPRO_KERNEL_THREADS`` environment variable > 1
(:func:`resolve_threads`); process-pool workers reset the environment
half to 1 so threads never multiply into process oversubscription (see
:mod:`repro.parallel.pool`).  An OpenMP build of ``_kernels.c`` runs the
chunks in parallel (compile-probed; a failed probe warns once and falls
back to the sequential object).  The ``numpy`` and ``python`` gates run
single-threaded and ignore the budget.

This module also owns :class:`EngineBuffers`, the named grow-only
scratch pool that persistent sweep workers keep alive across grid
points (see :func:`repro.parallel.pool.worker_state`).
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import platform
import shutil
import subprocess
import tempfile
import threading
import warnings
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "KERNELS_ENV",
    "THREADS_ENV",
    "SEED_MODE_ENV",
    "DEFAULT_KERNEL",
    "SEED_MODES",
    "EngineBuffers",
    "available_kernels",
    "resolve_kernel",
    "resolve_threads",
    "resolve_seed_mode",
    "fill_uniforms",
    "philox_fill",
]

KERNELS_ENV = "REPRO_KERNELS"
THREADS_ENV = "REPRO_KERNEL_THREADS"
SEED_MODE_ENV = "REPRO_SEED_MODE"

# Must mirror REPRO_PH_CHUNK in _kernels.c: the C run entry takes an
# [R, PHILOX_CHUNK] float64 scratch (one cache-resident chunk row of
# draws per trial; never read by the caller).
PHILOX_CHUNK = 512
CACHE_ENV = "REPRO_KERNEL_CACHE"
DEFAULT_KERNEL = "numpy"

# Engine-level seed lineages.  "pair" and "direct" are synonyms here —
# both mean per-trial PCG64 Generators, stepped inside the C run entry
# on cext and read through fill_uniforms on the other gates (the
# distinction between them is a plan-level seed-derivation choice, see
# repro.plan) — while "philox" switches the whole uniform supply to
# the counter-based Philox4x32 lineage of repro.rng: a different
# deterministic stream with its own goldens, NOT bit-parity with PCG64.
SEED_MODES = ("pair", "direct", "philox")

# Read-ahead block of fill_uniforms (the gates without the C run
# entry): uniforms are pre-drawn per trial in slabs of this many
# doubles; rounds needing more draw straight into the staging
# array (identical stream either way — numpy Generators produce the
# same values regardless of how draws are batched into calls).
RNG_BLOCK = 8192

# Phase-1 blocking: aim the per-block CSR row working set at a
# fraction of L2 (measured sweet spot on the benchmark box; flat
# within 2x either side).
_BLOCK_BYTES = 128 << 10


# ---------------------------------------------------------------------------
# Persistent scratch
# ---------------------------------------------------------------------------


class EngineBuffers:
    """Named, grow-only scratch arrays reused across engine calls.

    A worker that sweeps many grid points with one :class:`EngineBuffers`
    pays allocation (and first-touch page faults) once instead of per
    point: ``get`` hands back a view of a kept backing array, growing or
    re-typing it only when a request no longer fits.  Contents are
    scratch — every consumer fully overwrites what it reads — except
    slots requested with ``zero=True``, which are cleared on every call
    (cheap relative to the round loop, and it keeps correctness
    independent of what a previous, possibly interrupted, run left
    behind).
    """

    def __init__(self) -> None:
        self._arrays: dict[str, np.ndarray] = {}

    def get(self, name: str, shape, dtype, *, zero: bool = False) -> np.ndarray:
        shape = (int(shape),) if np.isscalar(shape) else tuple(int(s) for s in shape)
        n = math.prod(shape)
        dtype = np.dtype(dtype)
        arr = self._arrays.get(name)
        if arr is None or arr.dtype != dtype or arr.size < n:
            arr = np.empty(max(n, 1), dtype=dtype)
            self._arrays[name] = arr
        view = arr[:n].reshape(shape)
        if zero:
            view[...] = 0
        return view

    @property
    def nbytes(self) -> int:
        """Total bytes currently held (diagnostic)."""
        return sum(a.nbytes for a in self._arrays.values())

    def clear(self) -> None:
        self._arrays.clear()


# ---------------------------------------------------------------------------
# Shared Phase-0: per-trial uniform fill with fixed-block read-ahead
# ---------------------------------------------------------------------------


def fill_uniforms(
    u: np.ndarray,
    active: "Sequence[int] | np.ndarray",
    sent: "Sequence[int] | np.ndarray",
    gens: list,
    slab: np.ndarray,
    slab_pos: np.ndarray,
) -> None:
    """Write each active trial's uniforms into ``u`` in canonical order.

    Trial ``t`` consumes exactly the stream ``gens[t]`` would produce
    round by round in the reference engine: uniforms are served from a
    per-trial read-ahead row of ``slab`` (refilled ``RNG_BLOCK`` at a
    time), and any request at least a full block long is drawn straight
    into the destination segment.  Exact by construction — numpy
    Generators yield identical values no matter how draws are batched
    into calls.

    ``active`` (trial ids) and ``sent`` (aligned per-trial ball counts)
    may be any iterables, including integer ndarrays — callers should
    pass their arrays directly rather than ``.tolist()`` copies.

    ``slab_pos[t]`` is the per-trial read position (``slab.shape[1]``
    means empty); callers initialize it to "empty" once per engine run.
    """
    blk = slab.shape[1]
    pos = 0
    for t, k in zip(active, sent):
        seg = u[pos : pos + k]
        p = int(slab_pos[t])
        have = blk - p
        if k <= have:
            seg[:] = slab[t, p : p + k]
            slab_pos[t] = p + k
        else:
            if have:
                seg[:have] = slab[t, p:]
            need = k - have
            if need >= blk:
                gens[t].random(out=seg[have:])
                slab_pos[t] = blk
            else:
                gens[t].random(out=slab[t])
                seg[have:] = slab[t, :need]
                slab_pos[t] = need
        pos += k


def philox_fill(
    u: np.ndarray,
    active: np.ndarray,
    sent: np.ndarray,
    words: np.ndarray,
    round_ctr: int,
) -> None:
    """Counter-based Phase-0: fill ``u`` from Philox counters, no state.

    The philox twin of :func:`fill_uniforms`: active trial ``active[a]``
    (rows of ``words``, the per-trial ``(k0, k1, c2, c3)`` uint32 words
    from :func:`repro.rng.philox_trial_words`) gets ``sent[a]`` doubles
    at the canonical packed offset.  Draw ``s`` of round ``round_ctr``
    reads counter ``(s >> 1, round_ctr, c2, c3)`` — a pure function of
    position, so any chunking, threading, or over-fill produces
    identical bits.

    Prefers the C ``repro_philox_fill`` (releases the GIL) and falls
    back to the numpy reference :func:`repro.rng.philox_uniforms` per
    trial when no C library can be built — same bits either way.
    """
    n_active = len(active)
    if n_active == 0:
        return
    sent = np.ascontiguousarray(sent[:n_active], dtype=np.int64)
    w = np.ascontiguousarray(words[active])
    cext: CextKernel = _REGISTRY["cext"]  # type: ignore[assignment]
    lib = cext._load()
    if lib is not None:
        total = int(sent.sum())
        lib.repro_philox_fill(u[:total], sent, n_active, w, round_ctr)
        return
    from ..rng import philox_uniforms

    pos = 0
    for a in range(n_active):
        k = int(sent[a])
        philox_uniforms(w[a], round_ctr, k, out=u[pos : pos + k])
        pos += k


# ---------------------------------------------------------------------------
# The compiled algorithm, as interpreted loops (the oracle of the C round)
# ---------------------------------------------------------------------------


def _phase23_trial(
    ball_key,
    dest,
    i0,
    i1,
    t,
    state1,
    state2,
    capacity,
    is_raes,
    count,
    touched,
    acc,
    out_key,
    out_base,
    do_compact,
):
    """Phase 2 + 3 for one trial; the twin of ``round_trial`` in ``_kernels.c``.

    Batch counts and the accept rule over the ball range ``[i0, i1)``,
    then (when compacting) the trial's survivors written at
    ``out_key[out_base:]``, packing trials contiguously.  Returns
    ``(survivors, accepted_balls)``; the count/touched/acc scratch
    arrives zeroed and is re-zeroed before returning.
    """
    n_s = state1.shape[1]
    acc_balls = 0
    kept = out_base
    if i1 - i0 >= n_s // 4:
        for i in range(i0, i1):
            count[dest[i]] += 1
        for s in range(n_s):
            cnt = count[s]
            if cnt == 0:
                continue
            c = state1[t, s] + cnt
            if not is_raes:
                state1[t, s] = c
            if c <= capacity:
                state2[t, s] = c
                acc[s] = 1
                acc_balls += cnt
        if do_compact:
            for i in range(i0, i1):
                out_key[kept] = ball_key[i]
                if acc[dest[i]] == 0:
                    kept += 1
        count[:n_s] = 0
        acc[:n_s] = 0
    else:
        nt = 0
        for i in range(i0, i1):
            s = dest[i]
            if count[s] == 0:
                touched[nt] = s
                nt += 1
            count[s] += 1
        for j in range(nt):
            s = touched[j]
            cnt = count[s]
            c = state1[t, s] + cnt
            if not is_raes:
                state1[t, s] = c
            if c <= capacity:
                state2[t, s] = c
                acc[s] = 1
                acc_balls += cnt
        if do_compact:
            for i in range(i0, i1):
                out_key[kept] = ball_key[i]
                if acc[dest[i]] == 0:
                    kept += 1
        for j in range(nt):
            count[touched[j]] = 0
            acc[touched[j]] = 0
    return kept - out_base, acc_balls


def _round_loops(
    u,
    ball_key,
    trial_ids,
    sent,
    reg_deg,
    indptr,
    degrees,
    indices,
    n_clients,
    block_clients,
    state1,
    state2,
    capacity,
    is_raes,
    dest,
    count,
    touched,
    acc,
    n_acc,
    out_key,
    do_compact,
    cur,
    seg_start,
    seg_end,
):
    """One round over all active trials; see ``_kernels.c`` for the spec.

    ``state1``/``state2`` are the policy's ``[R, n_servers]`` matrices:
    (cum_received, loads) for SAER, (loads, loads) for RAES — the
    aliasing makes the unified update of :func:`_phase23_trial` reduce
    to each policy's exact rule.  Returns the survivor count written to
    ``out_key``.
    """
    n_active = trial_ids.shape[0]
    pos = 0
    for a in range(n_active):
        seg_start[a] = pos
        pos += sent[a]
        seg_end[a] = pos
        cur[a] = seg_start[a]
    # phase 1: client-blocked destination gather
    v0 = 0
    while v0 < n_clients:
        if reg_deg > 0:
            block_end = (v0 + block_clients) * reg_deg
        else:
            block_end = v0 + block_clients
        for a in range(n_active):
            i = cur[a]
            e = seg_end[a]
            while i < e and ball_key[i] < block_end:
                if reg_deg > 0:
                    dg = reg_deg
                    row = np.int64(ball_key[i])
                else:
                    v = ball_key[i]
                    dg = np.int64(degrees[v])
                    row = np.int64(indptr[v])
                off = np.int64(u[i] * dg)
                if off > dg - 1:
                    off = dg - 1
                dest[i] = indices[row + off]
                i += 1
            cur[a] = i
        v0 += block_clients
    # phase 2 + 3 per trial: count, decide, compact (contiguous pack)
    out = 0
    for a in range(n_active):
        kept, acc_balls = _phase23_trial(
            ball_key, dest, seg_start[a], seg_end[a], trial_ids[a],
            state1, state2, capacity, is_raes, count, touched, acc,
            out_key, out, do_compact,
        )
        n_acc[a] = acc_balls
        out += kept
    return out


# ---------------------------------------------------------------------------
# Kernel implementations
# ---------------------------------------------------------------------------


class Kernel:
    """A round-kernel implementation; ``compiled`` marks fused-loop paths."""

    name: str = "abstract"
    compiled: bool = False

    def available(self) -> bool:
        return True

    def round_fn(self) -> Callable:
        """The per-round engine entry with the :func:`_round_loops`
        signature, for the engine's round loop over a uniform slab
        (``python``).  ``cext`` has none: it runs a whole engine call
        through :meth:`run_round_fn` and a serving round through
        :meth:`serve_round_fn`."""
        raise NotImplementedError(f"{self.name} has no fused round entry")

    def run_round_fn(self, threads: int) -> Callable | None:
        """The whole-run entry — every round of an engine call in one
        call, uniforms drawn inside the round — or ``None``: gates
        without one run the engine's per-round loop over
        :meth:`round_fn` with identical bits."""
        return None

    def serve_round_fn(self) -> Callable | None:
        """One :meth:`repro.serve.ServingState.route` round in one call,
        or ``None``: the state then routes through its numpy reference
        round, with identical bits."""
        return None


class NumpyKernel(Kernel):
    """Marker for the engine's vectorized reference loop."""

    name = "numpy"


class PythonKernel(Kernel):
    """Interpreted compiled-algorithm loops (parity testing / debugging)."""

    name = "python"
    compiled = True

    def round_fn(self) -> Callable:
        return _round_loops


_U64 = (1 << 64) - 1


def _pcg64_load(gens, rows) -> None:
    """Copy each PCG64 Generator's state into ``rows[t]`` as
    ``(state_hi, state_lo, inc_hi, inc_lo)`` — numpy's documented
    ``bit_generator.state`` dict, split into the 64-bit words the C
    entries step in place."""
    for t, g in enumerate(gens):
        st = g.bit_generator.state["state"]
        s, inc = st["state"], st["inc"]
        rows[t] = (s >> 64, s & _U64, inc >> 64, inc & _U64)


def _pcg64_store(gens, rows) -> None:
    """Write the stepped states back (``inc`` and the ``has_uint32``
    buffer are unchanged by double draws)."""
    for t, g in enumerate(gens):
        bg = g.bit_generator
        st = bg.state
        st["state"]["state"] = (int(rows[t, 0]) << 64) | int(rows[t, 1])
        bg.state = st


class CextKernel(Kernel):
    """ctypes-loaded C implementation, compiled on demand from ``_kernels.c``.

    Two builds of the same source: the sequential object (the parity
    baseline) and an OpenMP object for threaded runs.  The OpenMP build
    is compile-probed on first threaded use; a failed probe (compiler
    without ``-fopenmp``) makes :meth:`run_round_fn` warn once per
    (gate, threads) and hand back the sequential object — same
    results, no threads.
    """

    name = "cext"
    compiled = True

    def __init__(self) -> None:
        self._lib = None
        self._failed = False
        self._mt_lib = None
        self._mt_failed = False
        self._lock = threading.Lock()

    def _load(self):
        with self._lock:
            if self._lib is None and not self._failed:
                try:
                    self._lib = _load_cext_library()
                except Exception as exc:  # compiler missing, sandboxed, ...
                    self._failed = True
                    self._error = exc
        return self._lib

    def _load_mt(self):
        with self._lock:
            if self._mt_lib is None and not self._mt_failed:
                try:
                    self._mt_lib = _load_cext_library(openmp=True)
                except Exception as exc:  # -fopenmp unsupported, ...
                    self._mt_failed = True
                    self._mt_error = exc
        return self._mt_lib

    def available(self) -> bool:
        return self._load() is not None

    def run_round_fn(self, threads: int) -> Callable | None:
        """``repro_run``: every round of one engine call in one C call.

        Each trial's uniforms are drawn inside phase 1 from its row of
        ``pcg`` (``[R, 4]`` uint64 PCG64 states as ``state_hi,
        state_lo, inc_hi, inc_lo``, stepped in place) or, with
        ``pcg=None``, from its row of the Philox ``words``.  Rounds are
        split into trial chunks over the ``counts``/``toucheds``/``accs``
        scratch rows — run in parallel by the OpenMP build when
        ``threads > 1``; without it, warns once per (gate, threads) and
        runs the sequential build on one row, with identical results.
        A trial whose remaining balls see only blocked servers jumps to
        the round cap in closed form instead of grinding there (the
        ``[R, n_clients]`` int32 ``cursors`` scratch backs that check);
        ``rounds``/``work``/``assigned``/``alive_total`` are updated in
        place.
        """
        lib = self._load_mt() if threads > 1 else None
        if lib is None:
            if threads > 1:
                _warn_sequential(self, threads)
            lib = self._load()
        if lib is None:
            return None
        threaded = lib is self._mt_lib

        def call(pcg, words, uchunk, ball_key, alt_key, dest, total_balls,
                 cap, reg_deg, indptr, degrees, indices, n_clients,
                 block_clients, state1, state2, capacity, is_raes, counts,
                 toucheds, accs, ws, cursors, rounds, work, assigned,
                 alive_total):
            fn = lib.repro_run_i64 if state1.dtype == np.int64 else lib.repro_run_i32
            fn(
                None if pcg is None else pcg.ctypes.data,
                None if words is None else words.ctypes.data,
                uchunk, ball_key, alt_key, dest, rounds.shape[0],
                total_balls, cap, reg_deg, indptr, degrees, indices,
                n_clients, block_clients, state1, state2, state1.shape[1],
                capacity, is_raes, counts, toucheds, accs,
                counts.shape[0] if threaded else 1, ws, cursors,
                rounds, work, assigned, alive_total,
            )

        return call

    def serve_round_fn(self) -> Callable | None:
        """``repro_serve_round``: one :meth:`~repro.serve.ServingState.route`
        round in one C call — PCG64 draws, gather, SAER decide and
        in-place survivor compaction over the alive balls in buffer
        order (the contract is in ``_kernels.c``).  ``tags``,
        ``received`` and ``accepted`` may be ``None``; returns the
        number of balls assigned.
        """
        lib = self._load()
        if lib is None:
            return None
        fn = lib.repro_serve_round

        def call(pcg, owners, births, tags, indptr, indices, cum_received,
                 burned, capacity, round_no, out, received, accepted):
            n, n_s = owners.size, cum_received.size
            if (
                pcg.size != 4 or births.size != n or out.shape != (3, n)
                or burned.size != n_s or indptr[-1] != indices.size
                or (tags is not None and tags.size != n)
                or (received is not None and received.size != n_s)
                or (accepted is not None and accepted.size != n_s)
            ):
                raise ValueError("repro_serve_round: mismatched array sizes")
            return fn(
                pcg, n, owners, births, tags, indptr, indices, cum_received,
                burned, n_s, capacity, round_no, out, received, accepted,
            )

        return call


def _cc_candidates() -> list[str]:
    env = os.environ.get("CC")
    return [env] if env else ["cc", "gcc", "clang"]


def _flag_sets(openmp: bool) -> list[list[str]]:
    """The compiler flags the build tries, in order.

    ``-march=native`` first, plain ``-O3`` as the portable fallback.
    The native flags turn on the SIMD fills the compiler's predefined
    macros select: the Philox fill on AVX2, and the eight-lane PCG64
    fill on AVX-512 (F, DQ and VL); the portable build runs the scalar
    PCG64 loop (``repro_pcg64_lanes()`` reports 8 or 1).  Both builds
    give the same bits: the kernels are integer arithmetic plus
    isolated double multiplies and conversions, so there is still no
    multiply-add chain for ``-mfma`` to contract.
    """
    omp = ["-fopenmp"] if openmp else []
    return [
        ["-O3", *extra, "-shared", "-fPIC", *omp]
        for extra in (["-march=native"], [])
    ]


def _cpu_features() -> str:
    """The CPU's architecture and feature flags: the first ``flags``
    (x86) or ``Features`` (Arm) line of ``/proc/cpuinfo``, else
    ``platform.machine()`` alone."""
    machine = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                if key.strip() in ("flags", "Features"):
                    return f"{machine}: {value.strip()}"
    except OSError:
        pass
    return machine


def _kernel_so_name(source: bytes, openmp: bool, cpu: str) -> str:
    """File name of the cached kernel object for this build.

    ``-march=native`` makes the object specific to the CPU it was built
    on, so a cache shared between machines must never hand one CPU's
    build to another (with a key of the source alone, that crashed with
    SIGILL).  The name hashes the source, the resolved path of every
    compiler candidate, the flag sets tried and the CPU features.
    Nothing here runs a subprocess: loading a cached build stays a few
    file reads.
    """
    parts = []
    for cc in _cc_candidates():
        path = shutil.which(cc)
        parts.append(os.path.realpath(path) if path else cc)
    parts += [" ".join(flags) for flags in _flag_sets(openmp)]
    parts.append(cpu)
    h = hashlib.sha256(source)
    for part in parts:
        h.update(b"\0" + os.fsencode(part))
    stem = "_repro_kernels_omp" if openmp else "_repro_kernels"
    return f"{stem}_{h.hexdigest()[:16]}.so"


def _kernel_cache_dir() -> Path:
    cache_dir = os.environ.get(CACHE_ENV)
    if cache_dir:
        return Path(cache_dir)
    uid = os.getuid() if hasattr(os, "getuid") else "u"
    return Path(tempfile.gettempdir()) / f"repro-kernels-{uid}"


def _load_cext_library(openmp: bool = False):
    """Compile (once per :func:`_kernel_so_name` key) and load ``_kernels.c``.

    ``openmp=True`` builds a second object with ``-fopenmp`` (cached
    under its own name); the compile itself is the probe — a compiler
    that lacks OpenMP fails it and the caller falls back.
    """
    src = Path(__file__).with_name("_kernels.c")
    cache = _kernel_cache_dir()
    cache.mkdir(parents=True, exist_ok=True)
    so = cache / _kernel_so_name(src.read_bytes(), openmp, _cpu_features())
    if not so.exists():
        last_err: Exception | None = None
        done = False
        for cc in _cc_candidates():
            for flags in _flag_sets(openmp):
                tmp = so.with_name(f"{so.stem}.{os.getpid()}.tmp.so")
                cmd = [cc, *flags, "-o", str(tmp), str(src)]
                try:
                    subprocess.run(
                        cmd, check=True, capture_output=True, timeout=120
                    )
                    os.replace(tmp, so)  # atomic: workers race safely
                    last_err = None
                    done = True
                    break
                except Exception as exc:
                    last_err = exc
                    tmp.unlink(missing_ok=True)
            if done:
                break
        if last_err is not None:
            raise RuntimeError(
                f"C kernel build failed ({'OpenMP' if openmp else 'sequential'}): "
                f"{last_err}"
            )
    lib = ctypes.CDLL(str(so))
    lib.repro_pcg64_lanes.restype = ctypes.c_int64
    lib.repro_pcg64_lanes.argtypes = []
    _declare_run(lib.repro_run_i32, np.int32)
    _declare_run(lib.repro_run_i64, np.int64)
    _declare_serve(lib.repro_serve_round)
    _declare_fill(lib.repro_philox_fill)
    return lib


def _declare_run(fn, state_dtype) -> None:
    ptr = np.ctypeslib.ndpointer
    c = dict(flags="C_CONTIGUOUS")
    i64 = ctypes.c_int64
    fn.restype = None
    fn.argtypes = [
        ctypes.c_void_p,        # pcg [R, 4] uint64, or NULL
        ctypes.c_void_p,        # words [R, 4] uint32 (when pcg is NULL)
        ptr(np.float64, **c),   # uchunk [R, PHILOX_CHUNK]
        ptr(np.int32, **c),     # ball_key (initial balls)
        ptr(np.int32, **c),     # alt_key
        ptr(np.int32, **c),     # dest
        i64,                    # R
        i64,                    # total_balls (per trial)
        i64,                    # cap (round cap)
        i64,                    # reg_deg
        ptr(np.int32, **c),     # indptr
        ptr(np.int32, **c),     # degrees
        ptr(np.int32, **c),     # indices
        i64,                    # n_clients
        i64,                    # block_clients
        ptr(state_dtype, **c),  # state1
        ptr(state_dtype, **c),  # state2
        i64,                    # n_s
        i64,                    # capacity
        i64,                    # is_raes
        ptr(state_dtype, **c),  # counts   [n_threads, n_s]
        ptr(np.int32, **c),     # toucheds [n_threads, n_s]
        ptr(np.uint8, **c),     # accs     [n_threads, n_s]
        i64,                    # n_threads
        ptr(np.int64, **c),     # ws [9R + n_threads + 1]
        ptr(np.int32, **c),     # cursors [R, n_clients]
        ptr(np.int64, **c),     # rounds
        ptr(np.int64, **c),     # work
        ptr(np.int64, **c),     # assigned
        ptr(np.int64, **c),     # alive_total
    ]


def _optional(ptr_type):
    """``ptr_type`` that also takes ``None``, passed to C as NULL."""

    class Optional(ptr_type):
        @classmethod
        def from_param(cls, obj):
            return None if obj is None else ptr_type.from_param(obj)

    return Optional


def _declare_serve(fn) -> None:
    ptr = np.ctypeslib.ndpointer
    c = dict(flags="C_CONTIGUOUS")
    i64 = ctypes.c_int64
    fn.restype = i64
    fn.argtypes = [
        ptr(np.uint64, **c),             # pcg [4], stepped in place
        i64,                             # n (alive balls)
        ptr(np.int64, **c),              # owners [n], compacted
        ptr(np.int64, **c),              # births [n], compacted
        _optional(ptr(np.int64, **c)),   # tags [n] or NULL, compacted
        ptr(np.int64, **c),              # indptr [n_clients + 1]
        ptr(np.int64, **c),              # indices
        ptr(np.int64, **c),              # cum_received [n_s]
        ptr(np.bool_, **c),              # burned [n_s], rewritten
        i64,                             # n_s
        i64,                             # capacity
        i64,                             # round_no
        ptr(np.int64, **c),              # out [3, n]
        _optional(ptr(np.int64, **c)),   # received [n_s] or NULL
        _optional(ptr(np.int64, **c)),   # accepted [n_s] or NULL
    ]


def _declare_fill(fn) -> None:
    ptr = np.ctypeslib.ndpointer
    c = dict(flags="C_CONTIGUOUS")
    fn.restype = None
    fn.argtypes = [
        ptr(np.float64, **c),   # u (canonical packed layout)
        ptr(np.int64, **c),     # sent (per active trial)
        ctypes.c_int64,         # n_active
        ptr(np.uint32, **c),    # words [n_active, 4]
        ctypes.c_uint32,        # round_ctr
    ]


# ---------------------------------------------------------------------------
# Registry / gate
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, Kernel] = {
    "numpy": NumpyKernel(),
    "python": PythonKernel(),
    "cext": CextKernel(),
}

# Warn-once state for fallback warnings, keyed per (gate, threads):
# "cext is unavailable" at threads=1 and at threads=4 are different
# operational problems (the second also loses the thread budget), so
# each key warns independently — but only once.
_warned: set[tuple[str, int]] = set()


def _warn_once(key: tuple[str, int], message: str) -> None:
    if key not in _warned:
        _warned.add(key)
        warnings.warn(message, RuntimeWarning, stacklevel=3)


def available_kernels() -> list[str]:
    """Names of the kernel implementations usable on this install."""
    return [name for name, k in _REGISTRY.items() if k.available()]


def resolve_kernel(name: str | None = None, threads: int | None = None) -> Kernel:
    """Resolve the runtime gate: argument > ``REPRO_KERNELS`` > numpy.

    Unknown names raise; known-but-unavailable ones (no C compiler)
    warn once per (gate, threads) and fall back to the numpy reference
    so minimal installs keep working.  ``threads`` only keys the
    warn-once state (callers that resolved a thread budget pass it
    through); it never changes which kernel is returned.
    """
    requested = name or os.environ.get(KERNELS_ENV) or DEFAULT_KERNEL
    requested = requested.strip().lower()
    try:
        kern = _REGISTRY[requested]
    except KeyError:
        raise ValueError(
            f"unknown kernel {requested!r}; known: {sorted(_REGISTRY)}"
        ) from None
    if not kern.available():
        _warn_once(
            (requested, resolve_threads(threads)),
            f"repro kernel {requested!r} is unavailable on this install; "
            f"falling back to the numpy reference path",
        )
        return _REGISTRY["numpy"]
    return kern


def resolve_threads(threads: int | None = None) -> int:
    """Resolve the kernel thread budget: argument > ``REPRO_KERNEL_THREADS`` > 1.

    Threads partition *trials*, never a single trial, and only the
    ``cext`` run entry honours them (the numpy reference loop and the
    interpreted ``python`` loops are single-threaded by design; they
    silently run with 1).  Process-pool workers reset the environment
    half to 1 (see :mod:`repro.parallel.pool`), so an environment-wide
    budget never multiplies into processes × threads oversubscription —
    an explicit argument still wins there.
    """
    if threads is None:
        raw = os.environ.get(THREADS_ENV)
        if not raw:
            return 1
        try:
            threads = int(raw)
        except ValueError:
            raise ValueError(
                f"{THREADS_ENV} must be a positive integer; got {raw!r}"
            ) from None
    threads = int(threads)
    if threads < 1:
        raise ValueError(f"kernel threads must be >= 1; got {threads}")
    return threads


def resolve_seed_mode(mode: str | None = None) -> str:
    """Resolve the seed-lineage gate: argument > ``REPRO_SEED_MODE`` > pair.

    Plan execution always passes the plan's mode explicitly, so the
    environment variable can steer ad-hoc engine calls but never alter
    the bits of a plan run.
    """
    requested = mode or os.environ.get(SEED_MODE_ENV) or "pair"
    requested = requested.strip().lower()
    if requested not in SEED_MODES:
        raise ValueError(
            f"unknown seed mode {requested!r}; known: {list(SEED_MODES)}"
        )
    return requested


def _warn_sequential(kern: Kernel, threads: int) -> None:
    reason = getattr(kern, "_mt_error", None)
    detail = f" ({reason})" if reason is not None else ""
    _warn_once(
        (kern.name, threads),
        f"repro kernel {kern.name!r} has no threaded path on this "
        f"install{detail}; running the threads={threads} request on "
        f"the sequential kernel (identical results, no speedup)",
    )


def block_clients_for(n_clients: int, n_edges: int) -> int:
    """Phase-1 block size: keep a block's CSR rows ~L2-resident."""
    if n_clients <= 0 or n_edges <= 0:
        return max(1, n_clients)
    avg_row_bytes = max(1, (n_edges * 4) // n_clients)
    return max(8, min(n_clients, _BLOCK_BYTES // avg_row_bytes))
