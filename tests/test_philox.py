"""The Philox counter lineage: KATs, fill parity, stream identity, gates.

The contract under test: ``seed_mode="philox"`` is its *own* golden
lineage (never bit-parity with PCG64) whose draws are pure functions of
``(trial words, round, slot)`` — so every kernel gate, thread count,
execution path (serial / pooled / spool-resume), and chunking must
produce identical bits, pinned by ``tests/data/philox_golden.json``.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.batch import (
    EngineBuffers,
    available_kernels,
    resolve_kernel,
    run_trials_batched,
)
from repro.batch.device import philox_uniforms_device
from repro.batch.kernels import (
    PHILOX_CHUNK,
    SEED_MODES,
    CupyKernel,
    _REGISTRY,
    _warned,
    fill_uniforms,
    philox_fill,
    resolve_seed_mode,
)
from repro.core.config import ProtocolParams, RunOptions
from repro.errors import PlanError, ProtocolConfigError, ResumeMismatchError
from repro.experiments.runners import _saer_plan
from repro.graphs import near_regular, random_regular_bipartite
from repro.durable.journal import plan_fingerprint, seed_token
from repro.parallel.aggregate import as_table
from repro.plan import ParameterGrid, SeedSpec, execute
from repro.rng import (
    make_rng,
    philox4x32,
    philox_seed_words,
    philox_trial_words,
    philox_uniforms,
    spawn_seeds,
)

GOLDEN = Path(__file__).parent / "data" / "philox_golden.json"
PARAMS = ProtocolParams(c=1.5, d=4)
RESULT_FIELDS = ("completed", "rounds", "work", "assigned_balls", "max_load")


def run_philox(graph, policy="saer", *, kernel="numpy", threads=None, seeds=None):
    return run_trials_batched(
        graph, PARAMS, policy, seeds=seeds or spawn_seeds(123, 4),
        kernel=kernel, threads=threads, seed_mode="philox",
    )


def signature(res):
    return tuple(
        tuple(np.asarray(getattr(res, f)).tolist()) for f in RESULT_FIELDS
    ) + (hashlib.sha256(
        np.ascontiguousarray(res.loads, dtype=np.int64).tobytes()
    ).hexdigest(),)


# ---------------------------------------------------------------------------
# Reference primitive: Random123 known-answer vectors and stream laws
# ---------------------------------------------------------------------------


class TestPhilox4x32:
    def test_known_answer_zero(self):
        out = philox4x32(np.zeros((4, 1), np.uint32), np.zeros(2, np.uint32))
        assert [hex(int(w)) for w in out[:, 0]] == [
            "0x6627e8d5", "0xe169c58d", "0xbc57ac4c", "0x9b00dbd8",
        ]

    def test_known_answer_ones_complement(self):
        ctr = np.full((4, 1), 0xFFFFFFFF, np.uint32)
        key = np.full(2, 0xFFFFFFFF, np.uint32)
        out = philox4x32(ctr, key)
        assert [hex(int(w)) for w in out[:, 0]] == [
            "0x408f276d", "0x41c83b0e", "0xa20bc7c6", "0x6d5451fd",
        ]

    def test_counter_shape_validation(self):
        with pytest.raises(ValueError, match="4 words"):
            philox4x32(np.zeros((3, 1), np.uint32), np.zeros(2, np.uint32))
        with pytest.raises(ValueError, match="2 words"):
            philox4x32(np.zeros((4, 1), np.uint32), np.zeros(3, np.uint32))

    def test_vectorized_matches_columnwise(self):
        rng = np.random.default_rng(5)
        ctr = rng.integers(0, 2**32, size=(4, 17), dtype=np.uint32)
        key = rng.integers(0, 2**32, size=2, dtype=np.uint32)
        full = philox4x32(ctr, key)
        for j in range(17):
            col = philox4x32(ctr[:, j : j + 1], key)
            assert np.array_equal(full[:, j], col[:, 0])


class TestPhiloxUniforms:
    def test_prefix_and_overfill_invariance(self):
        w = philox_seed_words(42)
        full = philox_uniforms(w, 3, 1001)
        for n in (1, 2, 7, 500, 1000):
            assert np.array_equal(philox_uniforms(w, 3, n), full[:n])

    def test_unit_interval_and_53_bit_grid(self):
        w = philox_seed_words(7)
        u = philox_uniforms(w, 1, 4096)
        assert np.all(u >= 0.0) and np.all(u < 1.0)
        assert np.array_equal(u, np.round(u * 2**53) / 2**53)

    def test_rounds_and_trials_are_distinct_streams(self):
        w1, w2 = philox_seed_words(1), philox_seed_words(2)
        assert not np.array_equal(
            philox_uniforms(w1, 1, 64), philox_uniforms(w1, 2, 64)
        )
        assert not np.array_equal(
            philox_uniforms(w1, 1, 64), philox_uniforms(w2, 1, 64)
        )

    def test_seed_words_reject_generator(self):
        with pytest.raises(TypeError, match="Generator"):
            philox_seed_words(make_rng(3))

    def test_trial_words_shape(self):
        assert philox_trial_words([]).shape == (0, 4)
        words = philox_trial_words(spawn_seeds(9, 5))
        assert words.shape == (5, 4) and words.dtype == np.uint32
        assert np.array_equal(words[2], philox_seed_words(spawn_seeds(9, 5)[2]))


# ---------------------------------------------------------------------------
# The C fill against the numpy reference, at every chunking
# ---------------------------------------------------------------------------


class TestPhiloxFill:
    def test_fill_matches_reference_any_partition(self):
        words = philox_trial_words(spawn_seeds(31, 6))
        expect = np.concatenate(
            [philox_uniforms(words[a], 9, 700) for a in range(6)]
        )
        for threads in (1, 2, 4):
            u = np.empty(6 * 700)
            philox_fill(
                u, np.arange(6), np.full(6, 700, np.int64), words, 9,
                threads=threads,
            )
            assert np.array_equal(u, expect)

    def test_fill_subset_of_trials(self):
        words = philox_trial_words(spawn_seeds(31, 6))
        active = np.array([1, 4])
        sent = np.array([33, PHILOX_CHUNK + 5], dtype=np.int64)
        u = np.empty(int(sent.sum()))
        philox_fill(u, active, sent, words, 2)
        assert np.array_equal(u[:33], philox_uniforms(words[1], 2, 33))
        assert np.array_equal(u[33:], philox_uniforms(words[4], 2, PHILOX_CHUNK + 5))

    def test_fill_empty_is_noop(self):
        u = np.full(4, -1.0)
        philox_fill(u, np.empty(0, np.int64), np.empty(0, np.int64),
                    np.empty((0, 4), np.uint32), 1)
        assert np.all(u == -1.0)


class TestFillUniformsNdarray:
    def test_accepts_ndarray_active_and_sent(self):
        # S2 regression: call sites pass engine arrays straight through.
        gens = [make_rng(s) for s in spawn_seeds(5, 3)]
        gens2 = [make_rng(s) for s in spawn_seeds(5, 3)]
        u1, u2 = np.empty(60), np.empty(60)
        fill_uniforms(u1, np.array([0, 2]), np.array([25, 35]), gens,
                      np.empty((3, 256)), np.full(3, 256, dtype=np.int64))
        fill_uniforms(u2, [0, 2], [25, 35], gens2, np.empty((3, 256)),
                      np.full(3, 256, dtype=np.int64))
        assert np.array_equal(u1, u2)


# ---------------------------------------------------------------------------
# Stream identity: gates × threads × serial / pooled / spool-resume
# ---------------------------------------------------------------------------


class TestStreamIdentity:
    @pytest.fixture(scope="class")
    def graphs(self):
        return {
            "regular": random_regular_bipartite(256, 8, seed=3),
            "near_regular": near_regular(192, 4, 12, seed=9),
        }

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN.read_text())

    @pytest.mark.parametrize("policy", ["saer", "raes"])
    @pytest.mark.parametrize("threads", [None, 2, 4])
    def test_every_gate_matches_golden_lineage(self, graphs, golden, policy, threads):
        case = f"regular_{policy}"
        pin = golden["cases"][case]
        for kernel in available_kernels():
            if kernel == "cupy":
                continue  # availability-dependent; covered by the fake below
            res = run_philox(graphs["regular"], policy, kernel=kernel,
                             threads=threads)
            for f in RESULT_FIELDS:
                got = np.asarray(getattr(res, f)).astype(int).tolist()
                assert got == pin[f], (kernel, threads, f)
            loads = hashlib.sha256(
                np.ascontiguousarray(res.loads, dtype=np.int64).tobytes()
            ).hexdigest()
            assert loads == pin["loads_sha256"], (kernel, threads)

    def test_irregular_graph_identical_across_gates(self, graphs, golden):
        pin = golden["cases"]["near_regular_saer"]
        for kernel in available_kernels():
            if kernel == "cupy":
                continue
            res = run_philox(graphs["near_regular"], "saer", kernel=kernel)
            assert np.asarray(res.rounds).tolist() == pin["rounds"], kernel
            assert np.asarray(res.work).tolist() == pin["work"], kernel

    @pytest.mark.parametrize("threads", [None, 2, 4])
    @pytest.mark.parametrize("balls", [PHILOX_CHUNK - 1, PHILOX_CHUNK,
                                       PHILOX_CHUNK + 1, 2 * PHILOX_CHUNK + 1])
    def test_chunk_edges_identical_across_gates(self, graphs, balls, threads):
        """Per-trial ball counts at the edges of the 512-slot chunks the
        cext run entry draws, on a regular and an irregular graph, in
        both state widths (a huge round cap forces int64), R = 5 and 1."""
        for graph in graphs.values():
            demands = np.zeros(graph.n_clients, dtype=np.int64)
            demands[: balls // 8] = 8
            demands[balls // 8] = balls % 8
            for options in (None, RunOptions(max_rounds=2**24)):
                for seeds in (spawn_seeds(balls, 5), spawn_seeds(balls, 1)):
                    runs = [
                        run_trials_batched(
                            graph, ProtocolParams(c=1.5, d=8), "saer",
                            seeds=seeds, demands=demands, options=options,
                            kernel=kernel, threads=threads, seed_mode="philox",
                        )
                        for kernel in available_kernels()
                        if kernel != "cupy"
                    ]
                    assert all(r.completed.all() for r in runs)
                    sigs = {signature(r) for r in runs}
                    assert len(sigs) == 1, (graph.name, balls, options)

    def test_distinct_from_pcg64_lineage(self, graphs):
        ph = run_philox(graphs["regular"], "saer")
        pcg = run_trials_batched(
            graphs["regular"], PARAMS, "saer", seeds=spawn_seeds(123, 4),
            kernel="numpy", seed_mode="pair",  # env-proof: CI exports philox
        )
        assert signature(ph) != signature(pcg)

    def test_buffer_reuse_does_not_change_bits(self, graphs):
        bufs = EngineBuffers()
        first = run_trials_batched(
            graphs["regular"], PARAMS, "saer", seeds=spawn_seeds(123, 4),
            kernel="cext", seed_mode="philox", buffers=bufs,
        )
        again = run_trials_batched(
            graphs["regular"], PARAMS, "saer", seeds=spawn_seeds(123, 4),
            kernel="cext", seed_mode="philox", buffers=bufs,
        )
        assert signature(first) == signature(again)

    def test_serial_pooled_and_spool_resume_identical(self, tmp_path):
        grid = ParameterGrid(n=[128, 256], c=[1.5], d=[4])

        def run(processes, spool=None, resume=None):
            plan = _saer_plan(
                grid, trials=3, seed=42, processes=processes,
                backend="batched", kernel="numpy", seed_mode="philox",
                spool=spool,
            )
            return as_table(execute(plan, resume=resume))

        serial = run(1)
        pooled = run(2)
        spool_dir = str(tmp_path / "spool")
        spooled = run(2, spool=spool_dir)
        resumed = run(2, spool=spool_dir, resume=spool_dir)
        for col in ("rounds", "work", "max_load", "completed"):
            ref = serial.column(col)
            for other in (pooled, spooled, resumed):
                assert np.array_equal(ref, other.column(col)), col


# ---------------------------------------------------------------------------
# Plan integration: fingerprint axis, validation, resume rejection
# ---------------------------------------------------------------------------


class TestPlanSeedMode:
    def _plan(self, mode, backend="batched"):
        return _saer_plan(
            ParameterGrid(n=[64], c=[1.5], d=[4]), trials=2, seed=5,
            processes=1, backend=backend,
            seed_mode=mode if mode != "pair" else None,
        )

    def test_seed_modes_registry(self):
        assert SEED_MODES == ("pair", "direct", "philox")
        assert resolve_seed_mode("philox") == "philox"
        assert resolve_seed_mode(None) in SEED_MODES
        with pytest.raises(ValueError, match="unknown seed mode"):
            resolve_seed_mode("weyl")

    def test_fingerprint_includes_seed_mode(self):
        pair = plan_fingerprint(self._plan("pair"))
        philox = plan_fingerprint(self._plan("philox"))
        assert pair != philox

    def test_describe_reports_seed_mode(self):
        assert self._plan("philox").describe()["seed_mode"] == "philox"

    def test_philox_requires_batched_backend(self):
        with pytest.raises(PlanError, match="batched"):
            self._plan("philox", backend="reference").validate()

    def test_philox_requires_seed_mode_aware_batch_fn(self):
        import dataclasses

        plan = self._plan("philox")

        def legacy_batch(graph, point, p_seeds):  # no seed_mode kwarg
            raise AssertionError("never called")

        crippled = dataclasses.replace(
            plan, work=dataclasses.replace(plan.work, batch=legacy_batch)
        )
        with pytest.raises(PlanError, match="seed_mode"):
            crippled.validate()

    def test_resume_under_different_mode_rejected(self, tmp_path):
        grid = ParameterGrid(n=[64], c=[1.5], d=[4])
        spool = str(tmp_path / "spool")

        def run(mode, resume=None):
            plan = _saer_plan(
                grid, trials=2, seed=5, processes=1, backend="batched",
                kernel="numpy", seed_mode=mode, spool=spool,
            )
            return execute(plan, resume=resume)

        run("philox")
        with pytest.raises(ResumeMismatchError):
            run(None, resume=spool)

    def test_plan_bits_immune_to_seed_mode_env(self, monkeypatch):
        # A plan's worker pins the plan's own seed mode, so exporting
        # REPRO_SEED_MODE (as the philox CI legs do) must not change the
        # bits of a pair-mode plan run.
        grid = ParameterGrid(n=[64], c=[1.5], d=[4])

        def run():
            plan = _saer_plan(
                grid, trials=2, seed=5, processes=1, backend="batched",
                kernel="numpy",
            )
            return execute(plan)

        monkeypatch.delenv("REPRO_SEED_MODE", raising=False)
        clean = run()
        monkeypatch.setenv("REPRO_SEED_MODE", "philox")
        polluted = run()
        assert np.array_equal(clean.column("work"), polluted.column("work"))
        assert np.array_equal(clean.column("rounds"), polluted.column("rounds"))

    def test_explicit_seed_token_carries_mode(self):
        pair = seed_token(SeedSpec(seeds=(1, 2, 3)))
        philox = seed_token(SeedSpec(seeds=(1, 2, 3), mode="philox"))
        assert len(pair) == 2  # historical 2-element shape kept for "pair"
        assert philox == pair + ["philox"]  # the mode is bit-determining


# ---------------------------------------------------------------------------
# The cupy gate: device twin parity without a GPU, clean fallback
# ---------------------------------------------------------------------------


class _FakeCupy:
    """numpy with cupy's module surface — the CI stand-in for a GPU."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def asnumpy(a):
        return np.asarray(a)


@pytest.fixture
def fake_cupy_gate():
    kern: CupyKernel = _REGISTRY["cupy"]
    saved = (kern._cupy, kern._checked)
    kern._cupy, kern._checked = _FakeCupy(), True
    try:
        yield kern
    finally:
        kern._cupy, kern._checked = saved


class TestCupyGate:
    def test_device_uniforms_match_reference(self):
        words = philox_trial_words(spawn_seeds(11, 3))
        sent = np.array([130, 7, 258], dtype=np.int64)
        seg_id = np.repeat(np.arange(3), sent)
        starts = np.concatenate(([0], np.cumsum(sent)[:-1]))
        slot = np.arange(int(sent.sum())) - np.repeat(starts, sent)
        u = philox_uniforms_device(np, words, seg_id, slot, 4)
        expect = np.concatenate(
            [philox_uniforms(words[a], 4, int(sent[a])) for a in range(3)]
        )
        assert np.array_equal(u, expect)

    @pytest.mark.parametrize("policy", ["saer", "raes"])
    def test_fake_device_run_matches_cpu_gates(self, fake_cupy_gate, policy):
        g = random_regular_bipartite(128, 6, seed=2)
        device = run_trials_batched(
            g, PARAMS, policy, seeds=spawn_seeds(55, 3), kernel="cupy",
            seed_mode="philox",
        )
        host = run_trials_batched(
            g, PARAMS, policy, seeds=spawn_seeds(55, 3), kernel="numpy",
            seed_mode="philox",
        )
        assert signature(device) == signature(host)

    def test_cupy_rejects_pcg64_modes(self, fake_cupy_gate):
        g = random_regular_bipartite(64, 4, seed=2)
        with pytest.raises(ProtocolConfigError, match="philox"):
            run_trials_batched(
                g, PARAMS, "saer", seeds=spawn_seeds(1, 2), kernel="cupy",
                seed_mode="pair",  # explicit: REPRO_SEED_MODE must not rescue it
            )

    def test_unavailable_cupy_warns_once_and_falls_back(self):
        kern: CupyKernel = _REGISTRY["cupy"]
        saved = (kern._cupy, kern._checked)
        kern._cupy, kern._checked = None, True
        saved_warned = set(_warned)
        _warned.clear()
        try:
            with pytest.warns(RuntimeWarning, match="unavailable"):
                assert resolve_kernel("cupy").name == "numpy"
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # second resolve: silent
                assert resolve_kernel("cupy").name == "numpy"
        finally:
            kern._cupy, kern._checked = saved
            _warned.clear()
            _warned.update(saved_warned)
