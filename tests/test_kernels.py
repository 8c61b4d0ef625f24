"""Parity suite for the batched engine's round kernels.

The load-bearing contract: every kernel implementation — the numpy
reference, the interpreted compiled-algorithm loops (``python``), the
numba JIT, and the C extension — produces **bit-identical** per-trial
results (rounds, work, assigned, completion, max load, blocked servers,
full load vectors).  The ``python`` kernel is the same code numba
compiles, so parity here certifies the compiled algorithm on installs
without numba or a C compiler; CI's ``kernels`` job re-runs the suite
with numba installed and the C path built.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import (
    BatchedSaerPolicy,
    EngineBuffers,
    available_kernels,
    resolve_kernel,
    resolve_threads,
    run_trials_batched,
)
from repro.batch.kernels import (
    KERNELS_ENV,
    PHILOX_CHUNK,
    RNG_BLOCK,
    THREADS_ENV,
    _round_loops,
    _round_loops_mt,
    block_clients_for,
    fill_uniforms,
    trial_chunks,
)
from repro.core.config import ProtocolParams, RunOptions
from repro.graphs import near_regular, random_regular_bipartite, trust_subsets
from repro.rng import make_rng, spawn_seeds

RESULT_FIELDS = (
    "completed",
    "rounds",
    "work",
    "assigned_balls",
    "max_load",
    "blocked_servers",
)

# Kernels testable on this install: "python" always runs the compiled
# algorithm interpreted; cext/numba join in when buildable/importable.
COMPILED = [k for k in available_kernels() if k != "numpy"]

THREAD_COUNTS = (1, 2, 4)

# Per-trial ball counts at the edges of the 512-slot chunks in which the
# cext run entry draws each trial's uniforms.
CHUNK_EDGES = (PHILOX_CHUNK - 1, PHILOX_CHUNK, PHILOX_CHUNK + 1, 2 * PHILOX_CHUNK + 1)

# A round cap this large makes total_balls * cap overflow int32, so the
# engine keeps policy state in int64 (the other state width).
WIDE_STATE = RunOptions(max_rounds=2**24)


def edge_case(family, balls):
    """A graph and a demand vector with exactly ``balls`` balls per trial."""
    if family == "regular":
        g = random_regular_bipartite(300, 12, seed=8)
    else:
        g = trust_subsets(300, 300, 12, seed=8)
    demands = np.zeros(g.n_clients, dtype=np.int64)
    demands[: balls // 4] = 4
    demands[balls // 4] = balls % 4
    assert int(demands.sum()) == balls
    return g, demands


def assert_kernels_match(
    graph, params, policy, seeds, *, demands=None, options=None, threads=None
):
    """Every available kernel must reproduce the numpy path bit-for-bit."""
    ref = run_trials_batched(
        graph, params, policy, seeds=seeds, demands=demands, options=options,
        kernel="numpy",
    )
    for name in COMPILED:
        got = run_trials_batched(
            graph, params, policy, seeds=seeds, demands=demands, options=options,
            kernel=name, threads=threads,
        )
        for f in RESULT_FIELDS:
            assert np.array_equal(getattr(ref, f), getattr(got, f)), (
                f"{name} kernel (threads={threads}) diverges on {f}: "
                f"{getattr(got, f)} != {getattr(ref, f)}"
            )
        assert np.array_equal(ref.loads, got.loads), (
            f"{name} kernel (threads={threads}) diverges on loads"
        )
    return ref


class TestKernelParity:
    """Bit-identity across kernels, branches, and graph families."""

    @pytest.mark.parametrize("policy", ["saer", "raes"])
    @pytest.mark.parametrize("c,d", [(1.5, 4), (2.0, 2), (1.2, 4)])
    def test_regular_graph(self, regular_graph, policy, c, d):
        assert_kernels_match(
            regular_graph, ProtocolParams(c=c, d=d), policy, spawn_seeds(11, 5)
        )

    @pytest.mark.parametrize("policy", ["saer", "raes"])
    def test_irregular_graphs(self, trust_graph, policy):
        assert_kernels_match(
            trust_graph, ProtocolParams(c=1.5, d=4), policy, spawn_seeds(13, 4)
        )
        nr = near_regular(96, 6, 18, seed=3)
        assert_kernels_match(nr, ProtocolParams(c=1.5, d=3), policy, spawn_seeds(17, 4))

    def test_dense_branch(self):
        # tiny server side: every round takes the dense (full-sweep) path
        g = random_regular_bipartite(24, 6, seed=4)
        assert_kernels_match(g, ProtocolParams(c=1.5, d=4), "saer", spawn_seeds(5, 8))

    def test_sparse_branch(self):
        # one ball per client on a larger graph: sparse from round one
        g = random_regular_bipartite(160, 8, seed=6)
        demands = np.ones(160, dtype=np.int64)
        assert_kernels_match(
            g, ProtocolParams(c=2.0, d=4), "saer", spawn_seeds(7, 3), demands=demands
        )

    def test_round_cap_hit(self, regular_graph):
        # starvation regime + low cap: trials stop at the cap un-completed
        ref = assert_kernels_match(
            regular_graph,
            ProtocolParams(c=1.0, d=4),
            "saer",
            spawn_seeds(19, 4),
            options=RunOptions(max_rounds=3),
        )
        assert not ref.completed.all()

    @pytest.mark.parametrize("family", ["regular", "trust"])
    @pytest.mark.parametrize("balls", CHUNK_EDGES)
    def test_chunk_edges(self, family, balls):
        g, demands = edge_case(family, balls)
        for options in (None, WIDE_STATE):
            for seeds in (spawn_seeds(balls, 3), spawn_seeds(balls, 1)):
                assert_kernels_match(
                    g, ProtocolParams(c=1.5, d=4), "saer", seeds,
                    demands=demands, options=options,
                )

    def test_custom_demands(self, regular_graph):
        rng = np.random.default_rng(0)
        demands = rng.integers(0, 5, size=regular_graph.n_clients)
        assert_kernels_match(
            regular_graph, ProtocolParams(c=1.5, d=4), "saer", spawn_seeds(23, 4),
            demands=demands,
        )

    def test_zero_trials(self, regular_graph):
        for name in COMPILED:
            res = run_trials_batched(
                regular_graph, ProtocolParams(c=1.5, d=4), "saer",
                seeds=[], kernel=name,
            )
            assert res.n_trials == 0

    def test_matches_reference_engine(self, regular_graph):
        """Compiled kernels inherit the batched↔reference equivalence."""
        from repro.core.engine import run_protocol

        seeds = spawn_seeds(29, 3)
        params = ProtocolParams(c=1.5, d=4)
        for name in COMPILED:
            batch = run_trials_batched(
                regular_graph, params, "saer", seeds=seeds, kernel=name
            )
            for i, s in enumerate(seeds):
                ref = run_protocol(regular_graph, params, "saer", seed=s)
                assert ref.rounds == batch.rounds[i]
                assert ref.work == batch.work[i]
                assert np.array_equal(ref.loads, batch.loads[i])

    @settings(max_examples=12, deadline=None)
    @given(
        n=st.integers(min_value=8, max_value=96),
        degree=st.integers(min_value=2, max_value=10),
        d=st.integers(min_value=1, max_value=5),
        c_tenths=st.integers(min_value=11, max_value=40),
        trials=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**20),
    )
    def test_property_random_shapes(self, n, degree, d, c_tenths, trials, seed):
        """Hypothesis: parity holds over random (n, Δ, d, c, R) shapes."""
        degree = min(degree, n)
        g = random_regular_bipartite(n, degree, seed=seed)
        params = ProtocolParams(c=c_tenths / 10.0, d=d)
        assert_kernels_match(
            g, params, "saer", spawn_seeds(seed, trials),
            options=RunOptions(max_rounds=64),
        )


class TestKernelGate:
    """Resolution: argument > REPRO_KERNELS env > numpy default."""

    def test_default_is_numpy(self, monkeypatch):
        monkeypatch.delenv(KERNELS_ENV, raising=False)
        assert resolve_kernel().name == "numpy"

    def test_env_gate(self, monkeypatch):
        monkeypatch.setenv(KERNELS_ENV, "python")
        assert resolve_kernel().name == "python"

    def test_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv(KERNELS_ENV, "python")
        assert resolve_kernel("numpy").name == "numpy"

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            resolve_kernel("fortran")
        with pytest.raises(ValueError, match="unknown kernel"):
            run_trials_batched(
                random_regular_bipartite(16, 4, seed=0),
                ProtocolParams(c=2.0, d=2),
                "saer",
                n_trials=1,
                kernel="fortran",
            )

    def test_unavailable_falls_back_to_numpy(self, monkeypatch):
        """A gate naming an absent implementation warns and still runs."""
        from repro.batch import kernels as kmod

        class Missing(kmod.Kernel):
            name = "numba"
            compiled = True

            def available(self):
                return False

        monkeypatch.setitem(kmod._REGISTRY, "numba", Missing())
        monkeypatch.setattr(kmod, "_warned", set())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            kern = resolve_kernel("numba")
        assert kern.name == "numpy"
        assert any("unavailable" in str(w.message) for w in caught)
        # the stub path still executes end to end
        g = random_regular_bipartite(16, 4, seed=0)
        res = run_trials_batched(
            g, ProtocolParams(c=2.0, d=2), "saer", n_trials=2, seed=1, kernel="numba"
        )
        assert res.n_trials == 2

    def test_numpy_and_gate_off_identical(self, regular_graph, monkeypatch):
        monkeypatch.delenv(KERNELS_ENV, raising=False)
        seeds = spawn_seeds(31, 3)
        params = ProtocolParams(c=1.5, d=4)
        a = run_trials_batched(regular_graph, params, "saer", seeds=seeds)
        b = run_trials_batched(regular_graph, params, "saer", seeds=seeds, kernel="numpy")
        assert np.array_equal(a.rounds, b.rounds)
        assert np.array_equal(a.loads, b.loads)

    def test_custom_policy_subclass_not_fused(self, regular_graph):
        """Compiled kernels only fuse the exact built-in rules: a subclass
        with its own decide must take the generic numpy path."""

        class AlwaysAccept(BatchedSaerPolicy):
            def decide_dense(self, trials, received):
                rows = self._rows(trials)
                cum = self.cum_received[rows]
                cum += received
                if not isinstance(rows, slice):
                    self.cum_received[rows] = cum
                accept = np.ones_like(cum, dtype=bool)
                np.copyto(self.loads[rows], cum, casting="unsafe")
                return accept

            def decide_sparse(self, ball_keys):
                keys, inverse, counts = np.unique(
                    ball_keys, return_inverse=True, return_counts=True
                )
                cum_flat = self.cum_received.reshape(-1)
                cum_flat[keys] += counts
                self.loads.reshape(-1)[keys] = cum_flat[keys]
                return np.ones(ball_keys.size, dtype=bool)[inverse]

        seeds = spawn_seeds(37, 2)
        params = ProtocolParams(c=1.5, d=4)
        for name in COMPILED:
            res = run_trials_batched(
                regular_graph, params, AlwaysAccept, seeds=seeds, kernel=name
            )
            # every ball accepted in round one ⇒ single round, all done
            assert res.completed.all()
            assert (res.rounds == 1).all()


class TestEngineBuffers:
    """The persistent scratch pool must never change results."""

    def test_reuse_across_calls_and_shapes(self, regular_graph, trust_graph):
        bufs = EngineBuffers()
        params = ProtocolParams(c=1.5, d=4)
        seeds = spawn_seeds(41, 4)
        fresh = run_trials_batched(regular_graph, params, "saer", seeds=seeds)
        for graph in (regular_graph, trust_graph, regular_graph):
            run_trials_batched(graph, params, "saer", seeds=seeds, buffers=bufs)
        again = run_trials_batched(regular_graph, params, "saer", seeds=seeds, buffers=bufs)
        assert np.array_equal(fresh.rounds, again.rounds)
        assert np.array_equal(fresh.loads, again.loads)
        assert bufs.nbytes > 0

    def test_reuse_across_kernels(self, regular_graph):
        bufs = EngineBuffers()
        params = ProtocolParams(c=1.5, d=4)
        seeds = spawn_seeds(43, 3)
        runs = {
            name: run_trials_batched(
                regular_graph, params, "saer", seeds=seeds, kernel=name, buffers=bufs
            )
            for name in ["numpy"] + COMPILED
        }
        ref = runs["numpy"]
        for name, got in runs.items():
            assert np.array_equal(ref.loads, got.loads), name

    def test_get_grows_and_retypes(self):
        bufs = EngineBuffers()
        a = bufs.get("x", 8, np.int32)
        a[:] = 7
        b = bufs.get("x", 4, np.int32)
        assert b.base is a.base or b.base is a  # same backing storage
        c = bufs.get("x", 16, np.int64)  # grow + retype reallocates
        assert c.dtype == np.int64 and c.size == 16
        z = bufs.get("z", (2, 3), np.int32, zero=True)
        assert not z.any()
        bufs.clear()
        assert bufs.nbytes == 0


class TestFillUniforms:
    """Read-ahead must serve exactly the per-trial generator streams."""

    @pytest.mark.parametrize("rounds_plan", [
        [5, 3, 2],                    # small buffered draws
        [RNG_BLOCK + 100, 50, 7],     # big direct draw, then buffered tail
        [RNG_BLOCK, 1, RNG_BLOCK - 1],
    ])
    def test_stream_position_exact(self, rounds_plan):
        seeds = spawn_seeds(99, 3)
        gens = [make_rng(s) for s in seeds]
        slab = np.empty((3, RNG_BLOCK))
        slab_pos = np.full(3, RNG_BLOCK, dtype=np.int64)
        served = {t: [] for t in range(3)}
        for k in rounds_plan:
            active = [0, 1, 2]
            sent = [k, k + 1, max(1, k // 2)]
            u = np.empty(sum(sent))
            fill_uniforms(u, active, sent, gens, slab, slab_pos)
            pos = 0
            for t, kk in zip(active, sent):
                served[t].append(u[pos : pos + kk].copy())
                pos += kk
        for t, s in enumerate(seeds):
            want = make_rng(s).random(sum(len(seg) for seg in served[t]))
            got = np.concatenate(served[t])
            assert np.array_equal(got, want), f"trial {t} stream diverged"


@pytest.mark.skipif("cext" not in COMPILED, reason="needs a working C compiler")
class TestRunEntry:
    """The cext run entry steps each trial's PCG64 state in C and hands
    it back: one C call per engine call, Generators left exactly where
    the reference engine leaves them, other seeds routed to numpy."""

    @pytest.mark.parametrize("threads", THREAD_COUNTS)
    def test_caller_generators_end_after_served_draws(self, regular_graph, threads):
        from repro.core.engine import run_protocol

        params = ProtocolParams(c=1.5, d=4)
        seeds = spawn_seeds(47, 4)
        gens = [make_rng(s) for s in seeds]
        run_trials_batched(
            regular_graph, params, "saer", seeds=gens, kernel="cext", threads=threads
        )
        for g, s in zip(gens, seeds):
            clone = make_rng(s)
            run_protocol(regular_graph, params, "saer", seed=clone)
            assert g.random() == clone.random()

    def test_foreign_and_shared_generators_match_numpy(self, regular_graph):
        params = ProtocolParams(c=1.5, d=4)
        seeds = spawn_seeds(53, 3)

        def mt19937():
            return [np.random.Generator(np.random.MT19937(s)) for s in seeds]

        def shared():
            g = make_rng(seeds[0])
            return [g, g, make_rng(seeds[1])]

        for make in (mt19937, shared):
            ref = run_trials_batched(regular_graph, params, "saer", seeds=make(), kernel="numpy")
            got = run_trials_batched(regular_graph, params, "saer", seeds=make(), kernel="cext")
            for f in RESULT_FIELDS:
                assert np.array_equal(getattr(ref, f), getattr(got, f)), (make.__name__, f)
            assert np.array_equal(ref.loads, got.loads), make.__name__

    def test_one_call_per_engine_run(self, regular_graph, monkeypatch):
        from repro.batch import kernels as kmod

        calls = []
        real = kmod.CextKernel.run_round_fn

        def counting(self, threads):
            fn = real(self, threads)
            return lambda *args: calls.append(1) or fn(*args)

        monkeypatch.setattr(kmod.CextKernel, "run_round_fn", counting)
        res = run_trials_batched(
            regular_graph, ProtocolParams(c=1.0, d=4), "saer", seeds=spawn_seeds(59, 4),
            kernel="cext", options=RunOptions(max_rounds=12),
        )
        assert res.rounds.max() == 12 and len(calls) == 1


# ---------------------------------------------------------------------------
# Threaded kernels: the trial-partitioned path must be bit-identical at
# every gate × thread-count combination.
# ---------------------------------------------------------------------------

class TestThreadedParity:
    """Gate × threads ∈ {1, 2, 4} × graph-family bit-identity matrix.

    Each cell re-runs the full result comparison against the numpy
    reference; ``threads=1`` pins that the threaded plumbing collapses
    cleanly, >1 pins that chunked execution (OpenMP for cext, prange
    for numba, interpreted chunks for python) changes nothing.
    """

    @pytest.mark.parametrize("threads", THREAD_COUNTS)
    @pytest.mark.parametrize("policy", ["saer", "raes"])
    def test_regular_graph(self, regular_graph, policy, threads):
        assert_kernels_match(
            regular_graph, ProtocolParams(c=1.5, d=4), policy,
            spawn_seeds(11, 5), threads=threads,
        )

    @pytest.mark.parametrize("threads", THREAD_COUNTS)
    @pytest.mark.parametrize("policy", ["saer", "raes"])
    def test_irregular_graphs(self, trust_graph, policy, threads):
        assert_kernels_match(
            trust_graph, ProtocolParams(c=1.5, d=4), policy,
            spawn_seeds(13, 4), threads=threads,
        )
        nr = near_regular(96, 6, 18, seed=3)
        assert_kernels_match(
            nr, ProtocolParams(c=1.5, d=3), policy, spawn_seeds(17, 4),
            threads=threads,
        )

    @pytest.mark.parametrize("threads", THREAD_COUNTS)
    def test_cap_hit(self, regular_graph, threads):
        ref = assert_kernels_match(
            regular_graph,
            ProtocolParams(c=1.0, d=4),
            "saer",
            spawn_seeds(19, 4),
            options=RunOptions(max_rounds=3),
            threads=threads,
        )
        assert not ref.completed.all()

    @pytest.mark.parametrize("threads", THREAD_COUNTS)
    def test_sparse_tail(self, threads):
        # one ball per client: the sparse Phase-2 branch from round one
        g = random_regular_bipartite(160, 8, seed=6)
        demands = np.ones(160, dtype=np.int64)
        assert_kernels_match(
            g, ProtocolParams(c=2.0, d=4), "saer", spawn_seeds(7, 5),
            demands=demands, threads=threads,
        )

    @pytest.mark.parametrize("threads", THREAD_COUNTS)
    def test_dense_branch(self, threads):
        # tiny server side: every round takes the dense (full-sweep) path
        g = random_regular_bipartite(24, 6, seed=4)
        assert_kernels_match(
            g, ProtocolParams(c=1.5, d=4), "saer", spawn_seeds(5, 8),
            threads=threads,
        )

    @pytest.mark.parametrize("threads", THREAD_COUNTS)
    @pytest.mark.parametrize("balls", CHUNK_EDGES)
    def test_chunk_edges(self, balls, threads):
        for family in ("regular", "trust"):
            g, demands = edge_case(family, balls)
            for policy, options in (("saer", None), ("raes", WIDE_STATE)):
                assert_kernels_match(
                    g, ProtocolParams(c=1.5, d=4), policy, spawn_seeds(balls, 5),
                    demands=demands, options=options, threads=threads,
                )

    @pytest.mark.parametrize("threads", THREAD_COUNTS)
    def test_trials_finish_in_different_rounds(self, threads):
        # finished trials drop out mid-run while others keep going, so the
        # per-round chunking re-balances over a shrinking active set
        g, demands = edge_case("trust", 1025)
        ref = assert_kernels_match(
            g, ProtocolParams(c=1.5, d=4), "saer", spawn_seeds(3, 7),
            demands=demands, threads=threads,
        )
        assert np.unique(ref.rounds).size > 1

    @pytest.mark.parametrize("threads", THREAD_COUNTS)
    def test_cap_stops_live_trials_irregular(self, trust_graph, threads):
        for seeds in (spawn_seeds(21, 5), spawn_seeds(21, 1)):
            ref = assert_kernels_match(
                trust_graph, ProtocolParams(c=1.0, d=4), "raes", seeds,
                options=RunOptions(max_rounds=2), threads=threads,
            )
            assert not ref.completed.any()
            assert (ref.rounds == 2).all()

    def test_threads_exceeding_trials(self, regular_graph):
        # more chunks requested than trials: clamped, still identical
        assert_kernels_match(
            regular_graph, ProtocolParams(c=1.5, d=4), "saer",
            spawn_seeds(23, 3), threads=16,
        )

    def test_single_trial(self, regular_graph):
        assert_kernels_match(
            regular_graph, ProtocolParams(c=1.5, d=4), "saer",
            spawn_seeds(29, 1), threads=4,
        )

    def test_buffers_reused_across_thread_counts(self, regular_graph):
        """One EngineBuffers pool serving 1/2/4-thread runs in sequence
        (the per-chunk scratch grows and re-slices) never changes results."""
        bufs = EngineBuffers()
        params = ProtocolParams(c=1.5, d=4)
        seeds = spawn_seeds(31, 4)
        ref = run_trials_batched(regular_graph, params, "saer", seeds=seeds)
        for name in COMPILED:
            for threads in (4, 1, 2, 4):
                got = run_trials_batched(
                    regular_graph, params, "saer", seeds=seeds, kernel=name,
                    threads=threads, buffers=bufs,
                )
                assert np.array_equal(ref.loads, got.loads), (name, threads)


class TestRandomPartitions:
    """Hypothesis: ANY trial partition through the threaded compaction
    path — uneven chunks, empty chunks, a single chunk, one trial —
    reproduces the sequential loops exactly: same survivor keys in
    canonical (trial-major, client-major) order, same per-trial accept
    counts, same policy state.  Uniform consumption is positional (the
    kernel reads exactly ``u[seg_start[a]:seg_end[a]]`` per trial), so
    byte-equal outputs on a shared ``u`` pin it too.
    """

    @staticmethod
    def _one_round_case(n, degree, d, R, frac_pct, seed):
        g = random_regular_bipartite(n, degree, seed=seed)
        n_s = g.n_servers
        indptr = g.client_indptr.astype(np.int32)
        indices = g.client_indices.astype(np.int32)
        degrees = np.diff(indptr).astype(np.int32)
        rng = np.random.default_rng(seed)
        # demands with many zeros so small totals hit the sparse branch
        dem = rng.integers(0, d + 1, size=n) * (rng.random(n) < frac_pct / 100.0)
        if not dem.sum():
            dem[0] = 1
        template = np.repeat(np.arange(n, dtype=np.int32) * np.int32(degree), dem)
        k = template.size
        ball_key = np.tile(template, R)
        u = rng.random(k * R)
        return dict(
            n=n, n_s=n_s, degree=degree, indptr=indptr, degrees=degrees,
            indices=indices, k=k, R=R, ball_key=ball_key, u=u,
            block_clients=block_clients_for(n, g.n_edges),
        )

    @staticmethod
    def _run_seq(case, capacity, is_raes):
        R, n_s, B = case["R"], case["n_s"], case["ball_key"].size
        state1 = np.zeros((R, n_s), np.int64)
        state2 = np.zeros((R, n_s), np.int64)
        n_acc = np.zeros(R, np.int64)
        out_key = np.full(B, -1, np.int32)
        out = _round_loops(
            case["u"], case["ball_key"],
            np.arange(R, dtype=np.int64), np.full(R, case["k"], np.int64),
            case["degree"], case["indptr"], case["degrees"], case["indices"],
            case["n"], case["block_clients"], state1, state2, capacity,
            is_raes, np.empty(B, np.int32), np.zeros(n_s, np.int64),
            np.empty(n_s, np.int32), np.zeros(n_s, np.uint8), n_acc,
            out_key, 1, np.empty(R, np.int64), np.empty(R, np.int64),
            np.empty(R, np.int64),
        )
        return int(out), out_key, n_acc, state1, state2

    @staticmethod
    def _run_mt(case, capacity, is_raes, chunk_starts):
        R, n_s, B = case["R"], case["n_s"], case["ball_key"].size
        T = chunk_starts.size - 1
        state1 = np.zeros((R, n_s), np.int64)
        state2 = np.zeros((R, n_s), np.int64)
        n_acc = np.zeros(R, np.int64)
        n_keep = np.zeros(R, np.int64)
        out_key = np.full(B, -1, np.int32)
        out = _round_loops_mt(
            case["u"], case["ball_key"],
            np.arange(R, dtype=np.int64), np.full(R, case["k"], np.int64),
            case["degree"], case["indptr"], case["degrees"], case["indices"],
            case["n"], case["block_clients"], state1, state2, capacity,
            is_raes, np.empty(B, np.int32), np.zeros((T, n_s), np.int64),
            np.empty((T, n_s), np.int32), np.zeros((T, n_s), np.uint8),
            n_acc, out_key, 1, np.empty(R, np.int64), np.empty(R, np.int64),
            np.empty(R, np.int64), chunk_starts, n_keep,
        )
        # the trial-partitioned entries left-pack survivors into the
        # (dead) input buffer, not out_key — that is what makes the
        # epilogue parallel; callers read ball_key and skip their swap
        return int(out), case["ball_key"], n_acc, state1, state2, n_keep

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(min_value=8, max_value=48),
        degree=st.integers(min_value=2, max_value=6),
        d=st.integers(min_value=1, max_value=4),
        R=st.integers(min_value=1, max_value=6),
        frac_pct=st.integers(min_value=5, max_value=100),
        capacity=st.integers(min_value=1, max_value=8),
        is_raes=st.integers(min_value=0, max_value=1),
        seed=st.integers(min_value=0, max_value=2**20),
        data=st.data(),
    )
    def test_any_partition_matches_sequential(
        self, n, degree, d, R, frac_pct, capacity, is_raes, seed, data
    ):
        degree = min(degree, n)
        case = self._one_round_case(n, degree, d, R, frac_pct, seed)
        n_chunks = data.draw(st.integers(min_value=1, max_value=R + 2))
        cuts = sorted(
            data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=R),
                    min_size=n_chunks - 1,
                    max_size=n_chunks - 1,
                )
            )
        )
        chunk_starts = np.array([0] + cuts + [R], dtype=np.int64)
        want = self._run_seq(case, capacity, is_raes)
        got = self._run_mt(case, capacity, is_raes, chunk_starts)
        assert got[0] == want[0], "survivor count diverged"
        assert np.array_equal(got[1][: got[0]], want[1][: want[0]]), (
            "canonical survivor order diverged"
        )
        assert np.array_equal(got[2], want[2]), "per-trial accept counts diverged"
        assert np.array_equal(got[3], want[3]), "state1 diverged"
        assert np.array_equal(got[4], want[4]), "state2 diverged"
        assert int(got[5].sum()) == got[0]

    def test_trial_chunks_partition_properties(self):
        buf = np.empty(9, dtype=np.int64)
        for A in (1, 2, 5, 8, 64):
            for T in (1, 2, 3, 8):
                b = trial_chunks(A, T, buf)
                assert b[0] == 0 and b[-1] == A and b.size == T + 1
                sizes = np.diff(b)
                assert (sizes >= 0).all()
                assert sizes.max() - sizes.min() <= 1  # balanced


class TestThreadsGate:
    """Resolution: argument > REPRO_KERNEL_THREADS env > 1."""

    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv(THREADS_ENV, raising=False)
        assert resolve_threads() == 1

    def test_env_gate(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV, "4")
        assert resolve_threads() == 4

    def test_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV, "4")
        assert resolve_threads(2) == 2

    def test_invalid_values_rejected(self, monkeypatch):
        with pytest.raises(ValueError, match="threads"):
            resolve_threads(0)
        with pytest.raises(ValueError, match="threads"):
            resolve_threads(-3)
        monkeypatch.setenv(THREADS_ENV, "lots")
        with pytest.raises(ValueError, match=THREADS_ENV):
            resolve_threads()

    def test_env_gate_reaches_engine(self, regular_graph, monkeypatch):
        monkeypatch.setenv(THREADS_ENV, "4")
        params = ProtocolParams(c=1.5, d=4)
        seeds = spawn_seeds(37, 3)
        ref = run_trials_batched(regular_graph, params, "saer", seeds=seeds, kernel="numpy")
        for name in COMPILED:
            got = run_trials_batched(
                regular_graph, params, "saer", seeds=seeds, kernel=name
            )
            assert np.array_equal(ref.loads, got.loads), name

    def test_numpy_gate_ignores_threads(self, regular_graph, monkeypatch):
        """The numpy reference loop is single-threaded by design: a
        thread budget on it is a silent no-op, never a warning."""
        monkeypatch.delenv(THREADS_ENV, raising=False)
        seeds = spawn_seeds(41, 3)
        params = ProtocolParams(c=1.5, d=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a = run_trials_batched(
                regular_graph, params, "saer", seeds=seeds, kernel="numpy",
                threads=4,
            )
        b = run_trials_batched(regular_graph, params, "saer", seeds=seeds, kernel="numpy")
        assert np.array_equal(a.loads, b.loads)


class TestThreadedFallback:
    """Missing threaded paths warn once per (gate, threads) and never
    change results."""

    def _fresh_cext_without_openmp(self, monkeypatch):
        from repro.batch import kernels as kmod

        real_load = kmod._load_cext_library

        def probe_fails(openmp=False):
            if openmp:
                raise RuntimeError("stub: compiler has no -fopenmp")
            return real_load()

        kern = kmod.CextKernel()
        monkeypatch.setattr(kmod, "_load_cext_library", probe_fails)
        monkeypatch.setitem(kmod._REGISTRY, "cext", kern)
        monkeypatch.setattr(kmod, "_warned", set())
        return kmod

    @pytest.mark.skipif(
        "cext" not in COMPILED, reason="needs a working C compiler"
    )
    def test_openmp_probe_failure_falls_back_sequential(
        self, regular_graph, monkeypatch
    ):
        self._fresh_cext_without_openmp(monkeypatch)
        params = ProtocolParams(c=1.5, d=4)
        seeds = spawn_seeds(43, 4)
        ref = run_trials_batched(regular_graph, params, "saer", seeds=seeds, kernel="numpy")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = run_trials_batched(
                regular_graph, params, "saer", seeds=seeds, kernel="cext",
                threads=2,
            )
        msgs = [str(w.message) for w in caught]
        assert any("no threaded path" in m for m in msgs), msgs
        assert np.array_equal(ref.loads, got.loads)
        # warn-once: an identical request stays silent...
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_trials_batched(
                regular_graph, params, "saer", seeds=seeds, kernel="cext",
                threads=2,
            )
        assert not any("no threaded path" in str(w.message) for w in caught)
        # ...but a different thread count is a different key and warns.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_trials_batched(
                regular_graph, params, "saer", seeds=seeds, kernel="cext",
                threads=4,
            )
        assert any("no threaded path" in str(w.message) for w in caught)

    def test_missing_numba_warn_keyed_per_gate_and_threads(self, monkeypatch):
        from repro.batch import kernels as kmod

        class Missing(kmod.Kernel):
            name = "numba"
            compiled = True

            def available(self):
                return False

        monkeypatch.setitem(kmod._REGISTRY, "numba", Missing())
        monkeypatch.setattr(kmod, "_warned", set())

        def fallback_warns(threads):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                kern = resolve_kernel("numba", threads=threads)
            assert kern.name == "numpy"
            return any("unavailable" in str(w.message) for w in caught)

        assert fallback_warns(2)          # first request at threads=2
        assert not fallback_warns(2)      # warn-once per key
        assert fallback_warns(4)          # new threads -> new key -> warns
        assert fallback_warns(1)          # and the sequential key is its own
        # a stubbed-out gate still executes end to end at a thread budget
        g = random_regular_bipartite(16, 4, seed=0)
        res = run_trials_batched(
            g, ProtocolParams(c=2.0, d=2), "saer", n_trials=2, seed=1,
            kernel="numba", threads=4,
        )
        assert res.n_trials == 2
