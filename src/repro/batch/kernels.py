"""Round kernels for the batched engine: numpy reference + compiled path.

The batched engine's per-round hot loop — per-trial uniform fill, the
Phase-1 destination gather, the Phase-2 count/decide, and survivor
compaction — lives here behind a small registry so the same engine can
run it two ways (:data:`KERNEL_NAMES`):

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
    build has them, with the scalar loop's bits);
    the CSR adjacency streams through cache once per round instead of
    once per trial.  A trial whose remaining balls see only blocked
    servers jumps to the round cap in closed form instead of grinding
    there (numpy grinds).  One more call runs a serving round
    (:meth:`Kernel.serve_round_fn`), and two serve exact-degree graph
    builds: the stub shuffle (:meth:`Kernel.shuffle_fn`) and one pass of
    the configuration model's repair walk (:meth:`Kernel.repair_pass_fn`),
    which lists duplicates with a per-server stamp instead of numpy's
    row sorts.  Both make the same draws and the same graph as numpy.

``cext`` is **bit-identical** to the numpy path: same uniforms
consumed in the same canonical (trial-major, client-major) order, same
accept decisions, same policy state, same survivor order.
``tests/test_kernels.py`` asserts this per trial.

Selection is a runtime gate: the ``kernel=`` argument to
:func:`repro.batch.run_trials_batched` wins, else the ``REPRO_KERNELS``
environment variable, else ``numpy``.  Graph builds take no argument, so
they follow ``REPRO_KERNELS`` (which ``repro-lb run --kernel`` exports).
Requesting ``cext`` where it cannot be built (no C compiler) warns once
and falls back to numpy — minimal installs never break, they just don't
accelerate.  The compiled object is cached on disk beside a ``.sha256``
sidecar and is loaded only when it matches; otherwise it is rebuilt.

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
back to the sequential object).  The ``numpy`` gate runs
single-threaded and ignores the budget.

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
    "KERNEL_NAMES",
    "THREADS_ENV",
    "DEFAULT_KERNEL",
    "EngineBuffers",
    "available_kernels",
    "resolve_kernel",
    "resolve_threads",
    "fill_uniforms",
]

KERNELS_ENV = "REPRO_KERNELS"
THREADS_ENV = "REPRO_KERNEL_THREADS"

# Must mirror REPRO_DRAW_CHUNK in _kernels.c: the run entry draws each
# trial's uniforms a chunk at a time into its row of an [R, DRAW_CHUNK]
# float64 scratch (cache-resident; never read by the caller).
DRAW_CHUNK = 512
CACHE_ENV = "REPRO_KERNEL_CACHE"
DEFAULT_KERNEL = "numpy"

# Read-ahead block of fill_uniforms (the numpy round loop): uniforms
# are pre-drawn per trial in slabs of this many doubles; rounds needing
# more draw straight into the staging array (identical stream either
# way — numpy Generators produce the same values regardless of how
# draws are batched into calls).  Generators the caller passed are
# read with no read-ahead, so they end where the reference engine
# leaves them.
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
    A negative position turns the read-ahead off for that trial: it
    draws exactly its ``k`` uniforms per round, so a Generator the
    caller passed ends exactly after the draws it served, as the
    reference engine leaves it.
    """
    blk = slab.shape[1]
    pos = 0
    for t, k in zip(active, sent):
        seg = u[pos : pos + k]
        p = int(slab_pos[t])
        have = blk - p
        if p < 0:
            gens[t].random(out=seg)
        elif k <= have:
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


# ---------------------------------------------------------------------------
# Kernel implementations
# ---------------------------------------------------------------------------


class Kernel:
    """A round-kernel implementation; ``compiled`` marks the fused C path."""

    name: str = "abstract"
    compiled: bool = False

    def available(self) -> bool:
        return True

    def run_round_fn(self, threads: int) -> Callable | None:
        """The whole-run entry — every round of an engine call in one
        call, uniforms drawn inside the round — or ``None`` (numpy,
        whose round loop lives in the engine)."""
        return None

    def serve_round_fn(self) -> Callable | None:
        """One :meth:`repro.serve.ServingState.route` round in one call,
        or ``None``: the state then routes through its numpy reference
        round, with identical bits."""
        return None

    def repair_pass_fn(self) -> Callable | None:
        """One pass of the configuration model's repair walk in one call,
        or ``None``: graph builds then run the numpy walk, with
        identical bits."""
        return None

    def shuffle_fn(self) -> Callable | None:
        """``rng.shuffle(x)`` of an int64 stub array in one call, or
        ``None``: graph builds then call ``rng.shuffle``, with identical
        bits."""
        return None


class NumpyKernel(Kernel):
    """Marker for the engine's vectorized reference loop."""

    name = "numpy"


_U64 = (1 << 64) - 1


def _pcg64_copy_in(bg, row) -> dict:
    """Copy a PCG64 bit generator's state into ``row[:4]`` as
    ``(state_hi, state_lo, inc_hi, inc_lo)`` — numpy's documented
    ``bit_generator.state`` dict, split into the 64-bit words the C
    entries step in place; returns the dict for :func:`_pcg64_copy_out`."""
    st = bg.state
    s, inc = st["state"]["state"], st["state"]["inc"]
    row[:4] = (s >> 64, s & _U64, inc >> 64, inc & _U64)
    return st


def _pcg64_copy_out(bg, st, row) -> None:
    """Write ``row``'s stepped state back into ``bg`` through its state
    dict ``st``: double draws move ``state`` alone (``inc`` and the
    ``has_uint32`` buffer stay), so the dict :func:`_pcg64_copy_in`
    returned needs no second read."""
    hi, lo = row[:2].tolist()
    st["state"]["state"] = (hi << 64) | lo
    bg.state = st


def _pcg64_load(gens, rows) -> None:
    """:func:`_pcg64_copy_in` for each Generator, into ``rows[t]``."""
    for t, g in enumerate(gens):
        _pcg64_copy_in(g.bit_generator, rows[t])


def _pcg64_store(gens, rows) -> None:
    """:func:`_pcg64_copy_out` for each Generator, from ``rows[t]``."""
    for t, g in enumerate(gens):
        bg = g.bit_generator
        _pcg64_copy_out(bg, bg.state, rows[t])


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
        state_lo, inc_hi, inc_lo``, stepped in place).  Rounds are
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

        def call(pcg, uchunk, ball_key, alt_key, dest, total_balls, cap,
                 reg_deg, indptr, degrees, indices, n_clients, block_clients,
                 state1, state2, capacity, is_raes, counts, toucheds, accs,
                 ws, cursors, rounds, work, assigned, alive_total):
            fn = lib.repro_run_i64 if state1.dtype == np.int64 else lib.repro_run_i32
            fn(
                pcg, uchunk, ball_key, alt_key, dest, rounds.shape[0],
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

        The call hands C raw addresses, so before C runs it makes the
        checks ``ndpointer`` argtypes would make, and more.  First the sizes
        (``ValueError``): ``pcg`` has 4 entries, ``births`` and ``tags``
        one per owner, ``out`` is ``(3, n)``, ``burned``, ``received``
        and ``accepted`` one per server, and ``indptr[-1] ==
        indices.size``.  Then each array (``TypeError``): an ndarray of
        its C type (``pcg`` uint64, ``burned`` bool, the rest int64),
        C-contiguous, and writable unless C only reads it (``indptr``
        and ``indices``).
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
                _address(pcg, _UINT64), n, _address(owners, _INT64),
                _address(births, _INT64),
                None if tags is None else _address(tags, _INT64),
                _address(indptr, _INT64, written=False),
                _address(indices, _INT64, written=False),
                _address(cum_received, _INT64), _address(burned, _BOOL), n_s,
                capacity, round_no, _address(out, _INT64),
                None if received is None else _address(received, _INT64),
                None if accepted is None else _address(accepted, _INT64),
            )

        return call

    def repair_pass_fn(self) -> Callable | None:
        """``repro_repair_pass`` of the sequential object: apply a pass's
        swaps, list the next duplicates and, once there are none, sort
        every row (the contract is in ``_kernels.c``; the walk that calls
        it is ``_compiled_walk`` in :mod:`repro.graphs.generators`)."""
        lib = self._load()
        return None if lib is None else lib.repro_repair_pass

    def shuffle_fn(self) -> Callable | None:
        """``repro_shuffle`` as ``call(rng, x)``: ``rng.shuffle(x)`` for a
        C-contiguous int64 array ``x`` of at most 2³² entries, with the
        same order and the same Generator state after it, its
        ``has_uint32``/``uinteger`` buffer included (the contract is in
        ``_kernels.c``).  A Generator on another bit generator than
        PCG64 shuffles through numpy."""
        lib = self._load()
        if lib is None:
            return None
        fn = lib.repro_shuffle

        def call(rng, x):
            if x.ndim != 1 or x.size > 2**32:
                raise ValueError("repro_shuffle: x must be 1-D with at most 2**32 entries")
            bg = rng.bit_generator
            if type(bg) is not np.random.PCG64:
                rng.shuffle(x)
                return
            st = bg.state
            s, inc = st["state"]["state"], st["state"]["inc"]
            row = np.array(
                [s >> 64, s & _U64, inc >> 64, inc & _U64, st["has_uint32"], st["uinteger"]],
                dtype=np.uint64,
            )
            fn(x, x.size, row)
            st["state"]["state"] = (int(row[0]) << 64) | int(row[1])
            st["has_uint32"], st["uinteger"] = int(row[4]), int(row[5])
            bg.state = st

        return call


def _cc_candidates() -> list[str]:
    env = os.environ.get("CC")
    return [env] if env else ["cc", "gcc", "clang"]


def _flag_sets(openmp: bool) -> list[list[str]]:
    """The compiler flags the build tries, in order.

    ``-march=native`` first, plain ``-O3`` as the portable fallback.
    The native flags turn on the SIMD paths the compiler's predefined
    macros select: the AVX2 gather of the regular-graph walk, and the
    eight-lane PCG64 fill on AVX-512 (F, DQ and VL); the portable build
    runs the scalar PCG64 loop (``repro_pcg64_lanes()`` reports 8 or
    1).  Both builds
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


def _checksum_path(so: Path) -> Path:
    """The ``.sha256`` sidecar that vouches for the cached object ``so``."""
    return so.with_name(so.name + ".sha256")


def _object_intact(so: Path) -> bool:
    """True when ``so`` exists and hashes to its sidecar's checksum
    (about 0.1 ms for the 61 KB object)."""
    try:
        want = _checksum_path(so).read_text(encoding="ascii").strip()
        return hashlib.sha256(so.read_bytes()).hexdigest() == want
    except OSError:
        return False


def _build_object(src: Path, so: Path, openmp: bool) -> None:
    """Compile ``src`` into ``so``, trying each compiler and flag set.

    The sidecar goes into place before the object, each by an atomic
    rename, so workers that race to build both end with a checksummed
    object, and a torn or foreign object fails :func:`_object_intact`.
    """
    last_err: Exception | None = None
    for cc in _cc_candidates():
        for flags in _flag_sets(openmp):
            tmp = so.with_name(f"{so.stem}.{os.getpid()}.tmp.so")
            tmp_sum = so.with_name(f"{so.stem}.{os.getpid()}.tmp.sha256")
            try:
                subprocess.run(
                    [cc, *flags, "-o", str(tmp), str(src)],
                    check=True, capture_output=True, timeout=120,
                )
                tmp_sum.write_text(
                    hashlib.sha256(tmp.read_bytes()).hexdigest() + "\n", encoding="ascii"
                )
                os.replace(tmp_sum, _checksum_path(so))
                os.replace(tmp, so)
                return
            except Exception as exc:
                last_err = exc
                tmp.unlink(missing_ok=True)
                tmp_sum.unlink(missing_ok=True)
    raise RuntimeError(
        f"C kernel build failed ({'OpenMP' if openmp else 'sequential'}): {last_err}"
    )


def _load_cext_library(openmp: bool = False):
    """Compile (once per :func:`_kernel_so_name` key) and load ``_kernels.c``.

    ``openmp=True`` builds a second object with ``-fopenmp`` (cached
    under its own name); the compile itself is the probe — a compiler
    that lacks OpenMP fails it and the caller falls back.  A cached
    object is loaded only if it matches its ``.sha256`` sidecar; a
    missing or mismatched sidecar rebuilds it.
    """
    src = Path(__file__).with_name("_kernels.c")
    cache = _kernel_cache_dir()
    cache.mkdir(parents=True, exist_ok=True)
    so = cache / _kernel_so_name(src.read_bytes(), openmp, _cpu_features())
    if not _object_intact(so):
        _build_object(src, so, openmp)
    lib = ctypes.CDLL(str(so))
    lib.repro_pcg64_lanes.restype = ctypes.c_int64
    lib.repro_pcg64_lanes.argtypes = []
    _declare_run(lib.repro_run_i32, np.int32)
    _declare_run(lib.repro_run_i64, np.int64)
    _declare_serve(lib.repro_serve_round)
    _declare_repair(lib.repro_repair_pass)
    lib.repro_shuffle.restype = None
    lib.repro_shuffle.argtypes = [
        np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS"),   # x [m], shuffled
        ctypes.c_int64,                                            # m
        np.ctypeslib.ndpointer(np.uint64, flags="C_CONTIGUOUS"),  # st [6], stepped
    ]
    return lib


def _declare_run(fn, state_dtype) -> None:
    ptr = np.ctypeslib.ndpointer
    c = dict(flags="C_CONTIGUOUS")
    i64 = ctypes.c_int64
    fn.restype = None
    fn.argtypes = [
        ptr(np.uint64, **c),    # pcg [R, 4], stepped in place
        ptr(np.float64, **c),   # uchunk [R, DRAW_CHUNK]
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


_UINT64, _INT64, _BOOL = np.dtype(np.uint64), np.dtype(np.int64), np.dtype(np.bool_)
_NO_BYTES = ctypes.c_char * 0


def _address(a, dtype: np.dtype, *, written: bool = True) -> int:
    """The data address of ``a`` for a ``void *`` argument, after the
    checks an ``ndpointer(dtype, flags="C_CONTIGUOUS")`` argtype makes,
    plus writability when C writes the array.

    A zero-length ctypes view borrows the buffer, which refuses an
    array that is not C-contiguous or not writable (``TypeError``), for
    about a fifth of what ``a.ctypes.data`` costs; only a read-only
    array that C just reads takes that slower road.
    """
    if not isinstance(a, np.ndarray) or a.dtype != dtype:
        raise TypeError(f"argument must be an ndarray of dtype {dtype}")
    if written or a.flags.writeable:
        return ctypes.addressof(_NO_BYTES.from_buffer(a))
    if not a.flags.c_contiguous:
        raise TypeError("argument must be C-contiguous")
    return a.ctypes.data


def _declare_serve(fn) -> None:
    ptr = ctypes.c_void_p  # checked by _address in serve_round_fn's call
    i64 = ctypes.c_int64
    fn.restype = i64
    fn.argtypes = [
        ptr,    # pcg [4] uint64, stepped in place
        i64,    # n (alive balls)
        ptr,    # owners [n], compacted
        ptr,    # births [n], compacted
        ptr,    # tags [n] or NULL, compacted
        ptr,    # indptr [n_clients + 1]
        ptr,    # indices
        ptr,    # cum_received [n_s]
        ptr,    # burned [n_s] bool, rewritten
        i64,    # n_s
        i64,    # capacity
        i64,    # round_no
        ptr,    # out [3, n]
        ptr,    # received [n_s] or NULL
        ptr,    # accepted [n_s] or NULL
    ]


def _declare_repair(fn) -> None:
    ptr = np.ctypeslib.ndpointer
    c = dict(flags="C_CONTIGUOUS")
    i64 = ctypes.c_int64
    fn.restype = i64
    fn.argtypes = [
        ptr(np.int64, **c),     # indptr [n_clients + 1]
        i64,                    # n_clients
        ptr(np.int64, **c),     # servers [m], rewritten
        ptr(np.int64, **c),     # partners [k_prev]
        i64,                    # k_prev
        ptr(np.int32, **c),     # dups [cap]
        i64,                    # cap
        ptr(np.uint8, **c),     # touched [n_clients]
        ptr(np.int32, **c),     # scratch [max(n_s, 4)]
        i64,                    # n_s
        i64,                    # all_rows
    ]


# ---------------------------------------------------------------------------
# Registry / gate
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, Kernel] = {
    "numpy": NumpyKernel(),
    "cext": CextKernel(),
}

# The gate's accepted names, in the order every ``--kernel`` option and
# plan validator lists them.
KERNEL_NAMES = tuple(_REGISTRY)

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
    ``cext`` run entry honours them (the numpy reference loop is
    single-threaded by design and silently runs with 1).  Process-pool workers reset the environment
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
