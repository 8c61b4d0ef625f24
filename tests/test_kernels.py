"""Parity suite for the batched engine's round kernels.

The load-bearing contract: every kernel implementation — the numpy
reference, the interpreted compiled-algorithm loops (``python``) and
the C extension — produces **bit-identical** per-trial results (rounds,
work, assigned, completion, max load, blocked servers, full load
vectors).  The ``python`` kernel is the C round's loop nest written out
in Python, so parity here certifies the compiled algorithm on installs
without a C compiler; CI's ``kernels`` job re-runs the suite with the C
path built, at one and at four threads.
"""

from __future__ import annotations

import dataclasses
import functools
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import (
    BatchResult,
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
    fill_uniforms,
)
from repro.core.config import ProtocolParams, RunOptions
from repro.graphs import BipartiteGraph, near_regular, random_regular_bipartite, trust_subsets
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
# algorithm interpreted; cext joins in when it builds.
COMPILED = [k for k in available_kernels() if k != "numpy"]

THREAD_COUNTS = (1, 2, 4)

# Per-trial ball counts at the edges of the 512-slot chunks in which the
# cext run entry draws each trial's uniforms.
CHUNK_EDGES = (PHILOX_CHUNK - 1, PHILOX_CHUNK, PHILOX_CHUNK + 1, 2 * PHILOX_CHUNK + 1)

# A round cap this large makes total_balls * cap overflow int32, so the
# engine keeps policy state in int64 (the other state width).
WIDE_STATE = RunOptions(max_rounds=2**24)


def exact_demands(g, balls):
    """A demand vector (at most 4 per client) with exactly ``balls`` balls."""
    demands = np.zeros(g.n_clients, dtype=np.int64)
    demands[: balls // 4] = 4
    demands[balls // 4] = balls % 4
    assert int(demands.sum()) == balls
    return demands


def edge_case(family, balls):
    """A graph and a demand vector with exactly ``balls`` balls per trial."""
    if family == "regular":
        g = random_regular_bipartite(300, 12, seed=8)
    else:
        g = trust_subsets(300, 300, 12, seed=8)
    return g, exact_demands(g, balls)


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


def stub_unavailable_cext(monkeypatch):
    """Swap the registry's cext entry for one that never builds (a
    machine without a C compiler) and reset the warn-once state."""
    from repro.batch import kernels as kmod

    class Missing(kmod.Kernel):
        name = "cext"
        compiled = True

        def available(self):
            return False

    monkeypatch.setitem(kmod._REGISTRY, "cext", Missing())
    monkeypatch.setattr(kmod, "_warned", set())


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
        stub_unavailable_cext(monkeypatch)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            kern = resolve_kernel("cext")
        assert kern.name == "numpy"
        assert any("unavailable" in str(w.message) for w in caught)
        # the stub path still executes end to end
        g = random_regular_bipartite(16, 4, seed=0)
        res = run_trials_batched(
            g, ProtocolParams(c=2.0, d=2), "saer", n_trials=2, seed=1, kernel="cext"
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


# Per-trial ball counts for the PCG64 lane fill: sends of 1-15 (the
# scalar loop alone), 16-23 (one lane step and a scalar tail), exact
# multiples of 8, and tails past one or two 512-slot chunks.  Rounds
# then send every smaller count as balls are accepted.
LANE_EDGES = (1, 9, 15, 16, 23, 24, 64, 200, PHILOX_CHUNK + 8, 2 * PHILOX_CHUNK + 13)


@pytest.fixture(scope="module")
def portable_cext(tmp_path_factory):
    """A cext gate built from the same source with the portable flag
    set alone (no ``-march=native``): the scalar PCG64 fill."""
    from repro.batch import kernels as kmod

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            kmod, "_flag_sets",
            lambda openmp: [["-O3", "-shared", "-fPIC", *(["-fopenmp"] if openmp else [])]],
        )
        mp.setenv(kmod.CACHE_ENV, str(tmp_path_factory.mktemp("portable-kernels")))
        kern = kmod.CextKernel()
        if not kern.available():
            pytest.skip("the portable build failed")
    return kern


@pytest.mark.skipif("cext" not in COMPILED, reason="needs a working C compiler")
class TestPortableBuild:
    """The native build (``-march=native``, so the AVX-512 PCG64 lanes
    where the CPU and compiler have them) against the portable one: the
    same ``BatchResult`` and the same caller Generator end states."""

    def test_lane_counts(self, portable_cext, record_property):
        native = resolve_kernel("cext")._load().repro_pcg64_lanes()
        record_property("native_pcg64_lanes", native)
        assert portable_cext._load().repro_pcg64_lanes() == 1
        assert native in (1, 8)

    @pytest.mark.parametrize("policy,c", [("saer", 1.5), ("raes", 1.2), ("saer", 1.0)])
    @pytest.mark.parametrize("family", ["regular", "irregular"])
    def test_native_build_equals_portable(self, portable_cext, monkeypatch, family, policy, c):
        from repro.batch import kernels as kmod

        if family == "regular":  # offsets drawn straight into the chunk row
            g = random_regular_bipartite(300, 12, seed=8)
        else:  # doubles, scaled per ball
            g = near_regular(300, 6, 18, seed=8)
        native = kmod._REGISTRY["cext"]
        lanes = native._load().repro_pcg64_lanes()
        for balls in LANE_EDGES:
            demands = exact_demands(g, balls)
            seeds = spawn_seeds(71 + balls, 3)
            runs = []
            for kern in (native, portable_cext):
                monkeypatch.setitem(kmod._REGISTRY, "cext", kern)
                gens = [make_rng(s) for s in seeds]
                res = run_trials_batched(
                    g, ProtocolParams(c=c, d=4), policy, seeds=gens, demands=demands,
                    kernel="cext", threads=1, options=RunOptions(record_loads=True),
                )
                runs.append((res, [gen.bit_generator.state for gen in gens]))
            (ref, ref_states), (got, got_states) = runs
            assert_batch_results_equal(ref, got, skip=("seed_infos",))
            assert got_states == ref_states, f"{balls} balls, native lanes = {lanes}"


# Graphs for the starvation suite: the Δ-regular closed-form gather, the
# irregular path, and an unbalanced trust graph (n_clients != n_servers).
STARVED_GRAPHS = {
    "regular": lambda: random_regular_bipartite(128, 8, seed=3),
    "near_regular": lambda: near_regular(96, 6, 18, seed=3),
    "trust": lambda: trust_subsets(120, 90, 10, seed=5),
}


@functools.lru_cache(maxsize=None)
def starved_graph(family):
    return STARVED_GRAPHS[family]()


@functools.lru_cache(maxsize=None)
def numpy_oracle(family, policy, c, seed_mode):
    """The numpy engine, which grinds every trial to the round cap."""
    return run_trials_batched(
        starved_graph(family), ProtocolParams(c=c, d=4), policy,
        seeds=spawn_seeds(61, 6), kernel="numpy", seed_mode=seed_mode,
        options=RunOptions(record_loads=True),
    )


def assert_batch_results_equal(ref, got, skip=()):
    for f in dataclasses.fields(BatchResult):
        if f.name in skip:
            continue
        a, b = getattr(ref, f.name), getattr(got, f.name)
        same = np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
        assert same, f"{f.name}: {b} != {a}"


def assert_generators_advanced(gens, seeds, work):
    """Each trial drew one uniform per ball-round, i.e. work // 2."""
    for t, (g, s) in enumerate(zip(gens, seeds)):
        fresh = make_rng(s)
        fresh.bit_generator.advance(int(work[t]) // 2)
        assert g.bit_generator.state == fresh.bit_generator.state, f"trial {t}"


def hot_and_cold_servers() -> BipartiteGraph:
    """Twenty clients on three hot servers, each of which burns in round
    1 under SAER at c = 1.0 (about 27 balls against a capacity of 4),
    and one more client that also sees a cold last server.  Only that
    client feeds the cold server, with its 4 balls, so it never blocks:
    the server cursor stops at the last server while that client still
    has balls that can reach it, and the client walk decides."""
    hot = np.arange(3, dtype=np.int64)
    indices = np.concatenate([np.tile(hot, 20), np.arange(4, dtype=np.int64)])
    indptr = np.concatenate([np.arange(21, dtype=np.int64) * 3, [64]])
    return BipartiteGraph.from_csr(21, 4, indptr, indices, name="hot-and-cold")


# (graph, policy, c, whether some server stays open) for the server
# cursor: every server burned or full, or an open server to stop at.
SERVER_CURSOR_CASES = {
    "saer-every-server-burns": (lambda: starved_graph("regular"), "saer", 1.0, False),
    "raes-every-server-full": (lambda: starved_graph("trust"), "raes", 1.0, False),
    "raes-some-server-open": (lambda: starved_graph("regular"), "raes", 1.0, True),
    "saer-cold-last-server": (hot_and_cold_servers, "saer", 1.0, True),
}


@pytest.mark.skipif("cext" not in COMPILED, reason="needs a working C compiler")
class TestStarvationJump:
    """A cext trial whose remaining balls all belong to clients with only
    blocked servers jumps to the round cap in closed form.  The numpy
    engine grinds those rounds, so every output must still match it."""

    @pytest.mark.parametrize("threads", THREAD_COUNTS)
    @pytest.mark.parametrize("seed_mode", ["pair", "philox"])
    @pytest.mark.parametrize("family", sorted(STARVED_GRAPHS))
    @pytest.mark.parametrize("policy", ["saer", "raes"])
    @pytest.mark.parametrize("c", [1.0, 1.2, 1.35, 1.5])
    def test_matches_numpy_oracle(self, c, policy, family, seed_mode, threads):
        ref = numpy_oracle(family, policy, c, seed_mode)
        seeds = spawn_seeds(61, 6)
        g, params = starved_graph(family), ProtocolParams(c=c, d=4)
        opts = RunOptions(record_loads=True)
        got = run_trials_batched(
            g, params, policy, seeds=seeds, kernel="cext", seed_mode=seed_mode,
            threads=threads, options=opts,
        )
        assert_batch_results_equal(ref, got)
        if seed_mode == "pair":
            # caller Generators must end where the grind leaves them
            gens = [make_rng(s) for s in seeds]
            got = run_trials_batched(
                g, params, policy, seeds=gens, kernel="cext", seed_mode="pair",
                threads=threads, options=opts,
            )
            assert_batch_results_equal(ref, got, skip=("seed_infos",))
            assert_generators_advanced(gens, seeds, got.work)

    @pytest.mark.parametrize("policy", ["saer", "raes"])
    def test_grid_holds_capped_and_finished_trials(self, policy):
        """The parity grid exercises both exits: c = 1.0 caps every
        trial on every graph, and on the regular graph c = 1.5 lets
        trials finish."""
        for family in STARVED_GRAPHS:
            assert not numpy_oracle(family, policy, 1.0, "pair").completed.any()
        assert numpy_oracle("regular", policy, 1.5, "pair").completed.any()

    @pytest.mark.parametrize("policy", ["saer", "raes"])
    def test_jump_reaches_a_huge_cap_at_once(self, policy):
        g = random_regular_bipartite(64, 8, seed=1)
        params = ProtocolParams(c=1.0, d=4)
        seeds = spawn_seeds(3, 4)
        cap, low = 10**7, 200
        # the first cext call of a process may compile the kernel
        run_trials_batched(g, params, policy, n_trials=1, seed=0, kernel="cext")
        gens = [make_rng(s) for s in seeds]
        start = time.perf_counter()
        got = run_trials_batched(
            g, params, policy, seeds=gens, kernel="cext", seed_mode="pair",
            threads=1, options=RunOptions(max_rounds=cap, record_loads=True),
        )
        elapsed = time.perf_counter() - start
        # Grinding 10**7 rounds takes seconds (RAES, a few balls left)
        # to minutes (SAER, ~10**9 ball-rounds); the jump, milliseconds.
        assert elapsed < 1.0, f"{elapsed:.2f} s: the trials were not jumped"
        # The numpy oracle at caps 200 and 400: every trial is starved by
        # round 200, so from there on only rounds and work move, by
        # 2·alive per round.
        lo, hi = (
            run_trials_batched(
                g, params, policy, seeds=seeds, kernel="numpy", seed_mode="pair",
                options=RunOptions(max_rounds=m, record_loads=True),
            )
            for m in (low, 2 * low)
        )
        alive = lo.total_balls - lo.assigned_balls
        assert not lo.completed.any()
        assert np.array_equal(hi.work - lo.work, 2 * alive * low)
        assert_batch_results_equal(lo, hi, skip=("rounds", "work"))
        assert_batch_results_equal(lo, got, skip=("rounds", "work", "seed_infos"))
        assert (got.rounds == cap).all()
        assert np.array_equal(got.work, lo.work + 2 * alive * (cap - low))
        assert_generators_advanced(gens, seeds, got.work)

    @pytest.mark.parametrize("threads", THREAD_COUNTS)
    @pytest.mark.parametrize("case", sorted(SERVER_CURSOR_CASES))
    def test_server_cursor(self, case, threads):
        """The per-trial server cursor settles starvation once every
        server is blocked; when it stops short at an open server, the
        client walk decides.  Either way every output matches the numpy
        grind and each caller Generator ends where the grind's draws
        leave it."""
        build, policy, c, open_servers = SERVER_CURSOR_CASES[case]
        g, params = build(), ProtocolParams(c=c, d=4)
        seeds = spawn_seeds(67, 6)
        opts = RunOptions(record_loads=True)
        ref = run_trials_batched(g, params, policy, seeds=seeds, kernel="numpy", options=opts)
        assert not ref.completed.any()
        if open_servers:
            assert (ref.blocked_servers < g.n_servers).all()
        else:
            assert (ref.blocked_servers == g.n_servers).all()
        gens = [make_rng(s) for s in seeds]
        got = run_trials_batched(
            g, params, policy, seeds=gens, kernel="cext", threads=threads, options=opts,
        )
        assert_batch_results_equal(ref, got, skip=("seed_infos",))
        assert_generators_advanced(gens, seeds, got.work)



# ---------------------------------------------------------------------------
# Threads: every gate × thread-count combination must be bit-identical.
# ---------------------------------------------------------------------------

class TestThreadedParity:
    """Gate × threads ∈ {1, 2, 4} × graph-family bit-identity matrix.

    Each cell re-runs the full result comparison against the numpy
    reference; ``threads=1`` pins that the threaded plumbing collapses
    cleanly, >1 pins that cext's chunked execution (in parallel in the
    OpenMP build) changes nothing and that ``python`` ignores the
    budget.
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

    @pytest.mark.parametrize("kernel", ["numpy", "python"])
    def test_gate_ignores_threads(self, regular_graph, monkeypatch, kernel):
        """The numpy reference loop and the interpreted loops are
        single-threaded by design: a thread budget on them is a silent
        no-op, never a warning."""
        monkeypatch.delenv(THREADS_ENV, raising=False)
        seeds = spawn_seeds(41, 3)
        params = ProtocolParams(c=1.5, d=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a = run_trials_batched(
                regular_graph, params, "saer", seeds=seeds, kernel=kernel,
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

    def test_unavailable_gate_warn_keyed_per_gate_and_threads(self, monkeypatch):
        stub_unavailable_cext(monkeypatch)

        def fallback_warns(threads):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                kern = resolve_kernel("cext", threads=threads)
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
            kernel="cext", threads=4,
        )
        assert res.n_trials == 2


class TestKernelCacheKey:
    """The cached ``.so`` is built with ``-march=native``, so its name
    must change with anything that changes the object it holds."""

    def test_name_depends_on_cpu_features(self):
        from repro.batch import kernels as kmod

        a = kmod._kernel_so_name(b"int x;", False, "x86_64: sse2 avx2")
        b = kmod._kernel_so_name(b"int x;", False, "x86_64: sse2")
        assert a != b
        assert a.startswith("_repro_kernels_") and a.endswith(".so")

    def test_name_depends_on_source_compiler_and_openmp(self, monkeypatch):
        from repro.batch import kernels as kmod

        cpu = "x86_64: sse2"
        base = kmod._kernel_so_name(b"int x;", False, cpu)
        assert kmod._kernel_so_name(b"int y;", False, cpu) != base
        assert kmod._kernel_so_name(b"int x;", True, cpu).startswith(
            "_repro_kernels_omp_"
        )
        monkeypatch.setenv("CC", "no-such-compiler-cc")
        assert kmod._kernel_so_name(b"int x;", False, cpu) != base

    @pytest.mark.skipif("cext" not in COMPILED, reason="needs a working C compiler")
    def test_cached_load_runs_no_subprocess(self, monkeypatch):
        from repro.batch import kernels as kmod

        source = Path(kmod.__file__).with_name("_kernels.c").read_bytes()
        name = kmod._kernel_so_name(source, False, kmod._cpu_features())
        assert (kmod._kernel_cache_dir() / name).exists()

        def no_subprocess(*args, **kwargs):
            raise AssertionError("the load path ran a subprocess")

        monkeypatch.setattr(kmod.subprocess, "run", no_subprocess)
        assert kmod._load_cext_library() is not None
