"""Tests for the unified execution-plan layer (:mod:`repro.plan`).

Three pillars:

* **validation / round-trip** — a :class:`RunPlan` is data; bad axis
  combinations fail loudly at validation time, good ones survive a
  field round-trip;
* **parity matrix** — ``execute(plan)`` across backend × graph source ×
  sink must be *bit-identical* to the pre-refactor outputs captured in
  ``tests/data/plan_golden.json`` (generated at the seed commit, pinned
  seeds);
* **sweep and table helpers** — ``execute``'s explicit point lists and
  seeds, and the ``ResultTable`` helpers the runners read their rows
  with.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.durable.journal import plan_fingerprint, seed_token
from repro.errors import PlanError, ResumeMismatchError
from repro.experiments import runners as R
from repro.graphs import random_regular_bipartite
from repro.graphs.families import build_point_graph, canonical_degree, family_spec
from repro.batch.results import ResultBlock
from repro.parallel import ResultTable, assemble_blocks
from repro.parallel.sweep import ParameterGrid, run_sweep
from repro.plan import (
    BackendSpec,
    BatchWorker,
    ExecSpec,
    GraphSpec,
    PerTrialWorker,
    ResultSpec,
    RunPlan,
    SeedSpec,
    WorkSpec,
    execute,
)

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "plan_golden.json").read_text()
)


def _noop_record(graph, point, seed):
    return {"v": 0}


def _noop_batch(graph, point, seeds):
    return [{"v": 0} for _ in seeds]


def _noop_batch_kernel(graph, point, seeds, kernel=None):
    return [{"v": 0} for _ in seeds]


def _noop_batch_full(graph, point, seeds, kernel=None, threads=None):
    return [{"v": 0} for _ in seeds]


def _probe_threads_batch(graph, point, seeds, kernel=None, threads=None):
    """Worker-side probe: what thread budget would the engine resolve?"""
    import os

    from repro.batch.kernels import resolve_threads

    eff = resolve_threads(threads)
    return [{"eff_threads": eff, "worker_pid": os.getpid()} for _ in seeds]


def _plan(**overrides) -> RunPlan:
    base = dict(
        grid=ParameterGrid(n=[64]),
        work=WorkSpec(record=_noop_record, batch=_noop_batch),
        trials=1,
    )
    base.update(overrides)
    return RunPlan(**base)


class TestPlanValidation:
    def test_valid_default_plan(self):
        _plan().validate()

    def test_unknown_backend(self):
        with pytest.raises(PlanError, match="unknown backend"):
            _plan(backend=BackendSpec(name="gpu")).validate()

    def test_batched_requires_batch_work(self):
        plan = _plan(
            work=WorkSpec(record=_noop_record),
            backend=BackendSpec(name="batched"),
        )
        with pytest.raises(PlanError, match="work.batch"):
            plan.validate()

    def test_kernel_requires_batched(self):
        with pytest.raises(PlanError, match="kernel"):
            _plan(backend=BackendSpec(name="reference", kernel="cext")).validate()

    def test_unknown_kernel(self):
        with pytest.raises(PlanError, match="unknown kernel"):
            _plan(backend=BackendSpec(name="batched", kernel="fpga")).validate()

    def test_kernel_needs_kernel_capable_batch_fn(self):
        # _noop_batch takes no kernel= — must fail at validate time, not
        # as a TypeError inside a pool worker.
        plan = _plan(backend=BackendSpec(name="batched", kernel="numpy"))
        with pytest.raises(PlanError, match="kernel= keyword"):
            plan.validate()

    def test_threads_require_batched(self):
        with pytest.raises(PlanError, match="threads"):
            _plan(backend=BackendSpec(name="reference", threads=2)).validate()

    def test_threads_must_be_positive_int(self):
        for bad in (0, -1, 2.5):
            plan = _plan(
                work=WorkSpec(record=_noop_record, batch=_noop_batch_full),
                backend=BackendSpec(name="batched", threads=bad),
            )
            with pytest.raises(PlanError, match="threads"):
                plan.validate()

    def test_threads_need_threads_capable_batch_fn(self):
        # _noop_batch_kernel takes kernel= but no threads= — fail at
        # validate time, not as a TypeError inside a pool worker.
        plan = _plan(
            work=WorkSpec(record=_noop_record, batch=_noop_batch_kernel),
            backend=BackendSpec(name="batched", threads=2),
        )
        with pytest.raises(PlanError, match="threads= keyword"):
            plan.validate()

    def test_pinned_graph_takes_no_cache_dir(self):
        with pytest.raises(PlanError, match="cache_dir"):
            _plan(graph=GraphSpec(cache_dir="/tmp/c", graph=object())).validate()

    def test_direct_seeds_need_pinned_graph(self):
        plan = _plan(seeds=SeedSpec(mode="direct", seeds=(1,)))
        with pytest.raises(PlanError, match="direct"):
            plan.validate()

    def test_explicit_seed_cardinality(self):
        plan = _plan(trials=3, seeds=SeedSpec(seeds=(1, 2)))
        with pytest.raises(PlanError, match="explicit seeds"):
            plan.validate()

    def test_root_and_explicit_seeds_conflict(self):
        with pytest.raises(PlanError, match="not both"):
            _plan(seeds=SeedSpec(root=1, seeds=(2,))).validate()

    @pytest.mark.parametrize("bad", [0, -3, 1.5])
    def test_processes_must_be_positive_int(self, bad):
        with pytest.raises(PlanError, match="processes"):
            _plan(execution=ExecSpec(processes=bad)).validate()

    def test_negative_trials(self):
        with pytest.raises(PlanError, match="trials"):
            _plan(trials=-1).validate()

    def test_non_mapping_points(self):
        with pytest.raises(PlanError, match="points must be dicts"):
            _plan(grid=[("n", 64)]).validate()


class TestPlanRoundTrip:
    def test_fields_survive_and_describe(self):
        plan = _plan(
            trials=4,
            seeds=SeedSpec(root=7),
            work=WorkSpec(record=_noop_record, batch=_noop_batch_kernel),
            backend=BackendSpec(name="batched", kernel="numpy"),
            execution=ExecSpec(processes=1),
        )
        plan.validate()
        d = plan.describe()
        assert d["backend"] == "batched" and d["kernel"] == "numpy"
        assert d["graph"] == "generate" and d["spool"] is None
        assert d["points"] == 1 and d["trials"] == 4
        assert d["processes"] == 1
        pinned = plan.override(
            graph=GraphSpec(graph=object()), results=ResultSpec(dir="/tmp/s")
        ).describe()
        assert pinned["graph"] == "pinned" and pinned["spool"] == "/tmp/s"

    def test_override_returns_new_plan(self):
        plan = _plan()
        other = plan.override(trials=9)
        assert other.trials == 9 and plan.trials == 1
        assert other.work is plan.work

    def test_explicit_point_list_passthrough(self):
        pts = [{"n": 64, "tag": "a"}, {"n": 128, "tag": "b"}]
        plan = _plan(grid=pts)
        plan.validate()
        assert plan.points() == pts
        assert plan.n_tasks() == 2


class TestExecuteParityMatrix:
    """execute(plan) must be bit-identical to the pre-refactor engine.

    Goldens were captured from the pre-plan sweep dispatcher with
    pinned seeds; every (backend × graph × sink) cell must reproduce
    them exactly, read both ways: as record dicts
    (``records``, the table's rows) and as typed columns (``columnar``).
    The ``*_on_spool`` cells write one block file and journal line per
    point and read the table back from disk.
    """

    SEED, TRIALS = 13, 2

    def _grid(self):
        return ParameterGrid(n=[64], c=[1.5, 4.0], d=[4])

    def _pinned_graph(self):
        g_seed = np.random.SeedSequence(self.SEED).spawn(
            len(self._grid()) * self.TRIALS + 1
        )[-1]
        return build_point_graph({"n": 64}, g_seed)

    def _run(self, tmp_path, *, spool=False, processes=1, **kwargs):
        table = execute(R._saer_plan(
            self._grid(), trials=self.TRIALS, seed=self.SEED, processes=processes,
            spool=str(tmp_path / "spool") if spool else None, **kwargs,
        ))
        assert isinstance(table, ResultTable)
        assert (tmp_path / "spool" / "journal.jsonl").exists() == spool
        return table

    @staticmethod
    def _assert_matches(table, want, results="records"):
        if results == "records":
            assert table.to_records() == want
        else:
            assert sorted(table.fields) == sorted(want[0])
            for name in table.fields:
                got = [v.item() if hasattr(v, "item") else v for v in table.column(name)]
                assert got == [row[name] for row in want], name

    @pytest.mark.parametrize("backend", ["reference", "batched"])
    @pytest.mark.parametrize("results", ["records", "columnar"])
    def test_generate(self, backend, results, tmp_path):
        table = self._run(tmp_path, backend=backend)
        self._assert_matches(table, GOLDEN[f"sweep/{backend}/generate"], results)

    @pytest.mark.parametrize("backend", ["reference", "batched"])
    @pytest.mark.parametrize("results", ["records", "columnar"])
    def test_cached(self, backend, results, tmp_path):
        cache = tmp_path / "cache"
        table = self._run(tmp_path, backend=backend, graph_cache=str(cache))
        self._assert_matches(table, GOLDEN[f"sweep/{backend}/cached"], results)
        assert list(cache.glob("regular-*.npz"))  # the cache was used

    @pytest.mark.parametrize("backend", ["reference", "batched"])
    @pytest.mark.parametrize("results", ["records", "columnar"])
    def test_pinned(self, backend, results, tmp_path):
        table = self._run(tmp_path, backend=backend, graph=self._pinned_graph())
        self._assert_matches(table, GOLDEN[f"sweep/{backend}/pinned"], results)

    @pytest.mark.parametrize("backend", ["reference", "batched"])
    def test_generate_on_spool(self, backend, tmp_path):
        table = self._run(tmp_path, spool=True, backend=backend)
        self._assert_matches(table, GOLDEN[f"sweep/{backend}/generate"])

    @pytest.mark.parametrize("backend", ["reference", "batched"])
    def test_cached_on_spool(self, backend, tmp_path):
        cache = tmp_path / "cache"
        table = self._run(tmp_path, spool=True, backend=backend, graph_cache=str(cache))
        self._assert_matches(table, GOLDEN[f"sweep/{backend}/cached"])
        assert list(cache.glob("regular-*.npz"))

    @pytest.mark.parametrize("backend", ["reference", "batched"])
    def test_pinned_on_spool(self, backend, tmp_path):
        table = self._run(tmp_path, spool=True, backend=backend, graph=self._pinned_graph())
        self._assert_matches(table, GOLDEN[f"sweep/{backend}/pinned"])

    def test_pool_matches_serial(self):
        a = execute(R._saer_plan(
            self._grid(), trials=self.TRIALS, seed=self.SEED, processes=1,
            backend="batched",
        ))
        b = execute(R._saer_plan(
            self._grid(), trials=self.TRIALS, seed=self.SEED, processes=2,
            backend="batched",
        ))
        assert list(a) == list(b) == GOLDEN["sweep/batched/generate"]

    @pytest.mark.parametrize("spool", [False, True], ids=["memory", "spool"])
    def test_batched_pool_ships_block_slices(self, spool, tmp_path):
        """Pool workers get pickled slices of one seed block; two
        processes equal one on both sinks."""
        from repro.plan import _cut_tasks
        from repro.rng import SeedBlock, spawn_seeds

        points = self._grid().points()
        seeds = spawn_seeds(self.SEED, len(points) * self.TRIALS)
        for _point, task_seeds, _trials in _cut_tasks(
            points, seeds, self.TRIALS, range(len(points)), False
        ):
            assert isinstance(task_seeds, SeedBlock) and len(task_seeds) == self.TRIALS
        serial = self._run(tmp_path / "serial", spool=spool, backend="batched")
        pooled = self._run(tmp_path / "pooled", spool=spool, processes=2, backend="batched")
        assert pooled.to_records() == serial.to_records() == GOLDEN["sweep/batched/generate"]

    @pytest.mark.parametrize("backend", ["reference", "batched"])
    def test_explicit_seeds_still_run(self, backend):
        """Explicit ``SeedSpec.seeds`` (a list, not a block) give the
        root spawn's rows when they are that spawn's elements."""
        from repro.rng import spawn_seeds

        plan = R._saer_plan(
            self._grid(), trials=self.TRIALS, seed=None, processes=1, backend=backend,
        )
        n = len(self._grid()) * self.TRIALS
        plan = plan.override(seeds=SeedSpec(seeds=tuple(spawn_seeds(self.SEED, n))))
        assert execute(plan).to_records() == GOLDEN[f"sweep/{backend}/generate"]

    @pytest.mark.parametrize("spool", [False, True], ids=["memory", "spool"])
    def test_reference_pool_matches_serial(self, spool, tmp_path):
        """Two processes against one on the reference backend: one task
        per trial on the memory sink, one per point on the spool."""
        serial = self._run(tmp_path / "serial", spool=spool, backend="reference")
        pooled = self._run(tmp_path / "pooled", spool=spool, processes=2, backend="reference")
        want = GOLDEN["sweep/reference/generate"]
        assert pooled.to_records() == serial.to_records() == want

    def test_kernel_cext_gate_is_bit_identical(self):
        recs = execute(R._saer_plan(
            self._grid(), trials=self.TRIALS, seed=self.SEED, processes=1,
            backend="batched", kernel="cext",
        ))
        assert list(recs) == GOLDEN["sweep/batched/generate"]

    @pytest.mark.parametrize("kernel", [None, "cext"])
    def test_golden_holds_under_threads_4(self, kernel):
        """BackendSpec(threads=4) must not move a single bit: the numpy
        gate ignores threads, the cext gate partitions trials with
        data-determined chunks — plan_golden.json pins both."""
        recs = execute(R._saer_plan(
            self._grid(), trials=self.TRIALS, seed=self.SEED, processes=1,
            backend="batched", kernel=kernel, kernel_threads=4,
        ))
        assert list(recs) == GOLDEN["sweep/batched/generate"]


# Maps each golden rows/ entry back to its runner invocation.
_ROW_RUNS = {
    "e01/reference": ("run_e01_completion", dict(ns=(64, 128), trials=2, seed=1, processes=1)),
    "e01/batched": ("run_e01_completion", dict(ns=(64, 128), trials=2, seed=1, processes=1, backend="batched")),
    "e02/reference": ("run_e02_work", dict(ns=(64, 128), trials=2, seed=7, processes=1)),
    "e02/batched": ("run_e02_work", dict(ns=(64, 128), trials=2, seed=7, processes=1, backend="batched")),
    "e03": ("run_e03_max_load", dict(n=64, settings=((2.0, 2),), families=("regular", "trust"), trials=2, seed=303, processes=1)),
    "e04": ("run_e04_burned_fraction", dict(ns=(64,), trials=2, include_paper_c=False, seed=404, processes=1)),
    "e05": ("run_e05_dominance", dict(ns=(64,), cs=(1.5,), trials=2, seed=505, processes=1)),
    "e06/reference": ("run_e06_c_threshold", dict(n=64, cs=(1.5, 4.0), trials=2, seed=1, processes=1)),
    "e06/batched": ("run_e06_c_threshold", dict(n=64, cs=(1.5, 4.0), trials=2, seed=1, processes=1, backend="batched")),
    "e06/reference/share": ("run_e06_c_threshold", dict(n=64, cs=(1.5, 4.0), trials=2, seed=1, processes=1, share_graph=True)),
    "e06/batched/share": ("run_e06_c_threshold", dict(n=64, cs=(1.5, 4.0), trials=2, seed=1, processes=1, backend="batched", share_graph=True)),
    "e07/reference": ("run_e07_degree_sweep", dict(n=64, trials=2, seed=707, processes=1)),
    "e07/batched": ("run_e07_degree_sweep", dict(n=64, trials=2, seed=707, processes=1, backend="batched")),
    "e08/reference": ("run_e08_almost_regular", dict(n=64, ratios=(1, 2), trials=2, seed=808, processes=1)),
    "e08/batched": ("run_e08_almost_regular", dict(n=64, ratios=(1, 2), trials=2, seed=808, processes=1, backend="batched")),
    "e09": ("run_e09_baselines", dict(n=64, trials=2, seed=909, processes=1)),
    "e10": ("run_e10_stage1", dict(n=256, seed=5)),
    "e11": ("run_e11_alive_decay", dict(ns=(128,), trials=2, seed=1111, processes=1)),
    "e12": ("run_e12_dynamic", dict(n=64, rates=(0.1, 1.0), horizon=60, trials=1, seed=1212, processes=1)),
}


class TestRunnerRowsGolden:
    """Every E-runner's table rows, bit-identical to the pre-plan state."""

    @pytest.mark.parametrize("name", sorted(_ROW_RUNS))
    def test_rows_match_golden(self, name):
        runner_name, kwargs = _ROW_RUNS[name]
        rows, _meta = getattr(R, runner_name)(**kwargs)
        want = GOLDEN[f"rows/{name}"]
        assert len(rows) == len(want)
        for got_row, want_row in zip(rows, want):
            assert got_row == want_row

    @pytest.mark.parametrize("backend", ["reference", "batched"])
    def test_per_trial_records_match_golden(self, backend):
        _rows, meta = R.run_e01_completion(
            ns=(64, 128), trials=2, seed=1, processes=1, backend=backend,
        )
        assert list(meta["records"]) == GOLDEN[f"records/e01/{backend}"]


class TestCanonicalWorkers:
    """The two canonical paths replace the old per-experiment adapters.

    Both take a ``(point, seeds, trials)`` task and return one block.
    """

    def test_per_trial_worker_pair_spawn_matches_manual(self):
        point = {"n": 64, "c": 2.0, "d": 2}
        block = PerTrialWorker(R._saer_run_record)(
            (point, np.random.SeedSequence(5).spawn(2), [0, 1])
        )
        want = []
        for trial, seed in enumerate(np.random.SeedSequence(5).spawn(2)):
            g_seed, p_seed = seed.spawn(2)
            rec = R._saer_run_record(build_point_graph(point, g_seed), point, p_seed)
            want.append(dict(point, trial=trial, **rec))
        assert assemble_blocks([block]).to_records() == want

    @pytest.mark.parametrize("worker", ["batch", "per_trial"])
    @pytest.mark.parametrize("pinned", [False, True])
    def test_workers_leave_task_seeds_unspawned(self, worker, pinned):
        """The workers build the children they read from each task seed
        without spawning it, so an in-process run leaves the caller's
        seeds as a pooled run (which works on pickled copies) does, and
        a second run of the same task gives the same block."""
        point = {"n": 64, "c": 2.0, "d": 2}
        graph = build_point_graph(point, 3) if pinned else None
        if worker == "batch":
            w = BatchWorker(R._saer_batch_block, pinned=pinned)
        else:
            w = PerTrialWorker(R._saer_run_record, pinned=pinned)
        seeds = np.random.SeedSequence(6).spawn(3)
        tasks = [(point, seeds, [0, 1, 2])]
        first = assemble_blocks(run_sweep(w, tasks, processes=1, graph=graph)).to_records()
        again = assemble_blocks(run_sweep(w, tasks, processes=1, graph=graph)).to_records()
        assert [s.n_children_spawned for s in seeds] == [0, 0, 0]
        assert again == first

    def test_batch_worker_matches_per_trial_worker(self):
        point = {"n": 64, "c": 2.0, "d": 2}
        seeds = np.random.SeedSequence(6).spawn(3)
        block = BatchWorker(R._saer_batch_block)((point, seeds, [0, 1, 2]))
        per_trial = PerTrialWorker(R._saer_run_record)(
            (point, np.random.SeedSequence(6).spawn(3), [0, 1, 2])
        )
        # The batched path conditions all trials on the first trial's
        # graph seed; compare protocol outcomes on that shared graph.
        g_seed, _ = np.random.SeedSequence(6).spawn(3)[0].spawn(2)
        graph = build_point_graph(point, g_seed)
        p_seeds = [ss.spawn(2)[1] for ss in np.random.SeedSequence(6).spawn(3)]
        want = [R._saer_run_record(graph, point, ps) for ps in p_seeds]
        assert assemble_blocks([block]).to_records() == [
            dict(point, trial=i, **rec) for i, rec in enumerate(want)
        ]
        assert per_trial.n_trials == 3  # reference path: one fresh graph each

    def test_worker_cardinality_check_still_applies(self):
        def short_batch(graph, point, seeds):
            return [{"v": 1}]

        plan = _plan(
            trials=3,
            work=WorkSpec(record=_noop_record, batch=short_batch),
            backend=BackendSpec(name="batched"),
        )
        with pytest.raises(ValueError, match="3 trials"):
            execute(plan)


class TestKernelThreadsDispatch:
    """Oversubscription guard: pool workers default kernel threads to 1.

    Threads multiply processes — an environment-wide
    ``REPRO_KERNEL_THREADS`` inherited by pool workers would run
    processes × threads runnable threads.  Pool worker initializers
    reset the env gate to 1; only an explicit plan-level budget
    (``BackendSpec.threads``, traveling in the pickled worker, capped
    by ``execute`` against the process count) threads pooled kernels.
    """

    def _probe_plan(self, *, threads=None, processes=1):
        return RunPlan(
            grid=ParameterGrid(n=[16, 32]),
            work=WorkSpec(record=_noop_record, batch=_probe_threads_batch),
            trials=2,
            seeds=SeedSpec(root=3),
            backend=BackendSpec(name="batched", threads=threads),
            execution=ExecSpec(processes=processes),
        )

    def test_pool_workers_default_to_one_thread(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_THREADS", "4")
        recs = execute(self._probe_plan(processes=2))
        assert recs and all(r["eff_threads"] == 1 for r in recs)
        assert any(r["worker_pid"] != __import__("os").getpid() for r in recs)

    def test_serial_runs_keep_the_env_budget(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_THREADS", "4")
        recs = execute(self._probe_plan(processes=1))
        assert recs and all(r["eff_threads"] == 4 for r in recs)

    def test_explicit_plan_budget_reaches_pool_workers_capped(self, monkeypatch):
        from repro.parallel.pool import available_cpus

        monkeypatch.delenv("REPRO_KERNEL_THREADS", raising=False)
        recs = execute(self._probe_plan(threads=4, processes=2))
        want = max(1, min(4, available_cpus() // 2))
        assert recs and all(r["eff_threads"] == want for r in recs)

    def test_explicit_budget_uncapped_when_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL_THREADS", raising=False)
        recs = execute(self._probe_plan(threads=4, processes=1))
        assert recs and all(r["eff_threads"] == 4 for r in recs)

    def test_run_sweep_pool_workers_reset_env(self, monkeypatch):
        """The reset is a map_parallel property, not a plan-layer one:
        every pooled dispatch (a bare run_sweep included) gets it."""
        monkeypatch.setenv("REPRO_KERNEL_THREADS", "4")
        recs = run_sweep(_threads_probe, list(range(4)), processes=2)
        assert recs and all(r["eff_threads"] == 1 for r in recs)

    def test_one_task_runs_in_the_calling_process(self):
        """An explicit process count is capped at the task count: a
        one-point batched plan forks no pool for its one task."""
        import os

        plan = self._probe_plan(processes=2).override(grid=ParameterGrid(n=[16]))
        recs = execute(plan)
        assert [r["worker_pid"] for r in recs] == [os.getpid()] * 2

    def test_resume_keeps_the_full_thread_budget(self, monkeypatch, tmp_path):
        """The thread cap sizes against the tasks that run: a resume
        with one point pending runs in-process with the whole budget."""
        import repro.parallel.pool as pool

        plan = RunPlan(
            grid=ParameterGrid(n=list(range(16, 26))),
            work=WorkSpec(record=_noop_record, batch=_record_threads_batch),
            trials=1,
            seeds=SeedSpec(root=3),
            backend=BackendSpec(name="batched", threads=8),
            results=ResultSpec(dir=str(tmp_path)),
        )
        execute(plan.override(execution=ExecSpec(processes=1)))
        from repro.durable import SpoolReader

        (tmp_path / SpoolReader(tmp_path).entries[9]["file"]).unlink()
        monkeypatch.setattr(pool, "available_cpus", lambda: 16)
        table = execute(plan)  # processes=None: sized from the one pending task
        assert [r["threads"] for r in table] == [8] * 10


def _threads_probe(_task):
    from repro.batch.kernels import resolve_threads

    return {"eff_threads": resolve_threads(None)}


def _record_threads_batch(graph, point, seeds, kernel=None, threads=None):
    """Worker-side probe: the thread budget the worker was handed."""
    return [{"threads": threads} for _ in seeds]


def _tiny_graph():
    return random_regular_bipartite(8, 2, seed=0)


def _value_record(graph, point, seed):
    rng = np.random.default_rng(seed)
    return {"value": point["a"] * 10 + float(rng.random())}


def _direct_plan(grid, trials, *, seed=None, seeds=None):
    """The task seeds handed unsplit to ``_value_record`` on a pinned graph."""
    return RunPlan(
        grid=grid,
        work=WorkSpec(record=_value_record),
        trials=trials,
        seeds=SeedSpec(root=seed, mode="direct", seeds=seeds),
        graph=GraphSpec(graph=_tiny_graph()),
        execution=ExecSpec(processes=1),
    )


class TestRunSweepExtensions:
    """Explicit point lists and explicit seeds through ``execute``."""

    def test_explicit_point_list(self):
        pts = [{"a": 2}, {"a": 1}]  # order preserved, not re-sorted
        recs = execute(_direct_plan(pts, 2, seed=4))
        assert [r["a"] for r in recs] == [2, 2, 1, 1]

    def test_explicit_seeds_override_spawn(self):
        grid = ParameterGrid(a=[1, 2])
        seeds = tuple(np.random.SeedSequence(9).spawn(4))
        via_root = execute(_direct_plan(grid, 2, seed=9))
        via_seeds = execute(_direct_plan(grid, 2, seeds=seeds))
        assert list(via_root) == list(via_seeds)

    def test_seed_and_seeds_conflict(self):
        plan = _direct_plan(
            ParameterGrid(a=[1]), 1, seed=1, seeds=(np.random.SeedSequence(0),)
        )
        with pytest.raises(PlanError, match="not both"):
            execute(plan)

    def test_wrong_seed_count(self):
        plan = _direct_plan(
            ParameterGrid(a=[1, 2]), 2, seeds=(np.random.SeedSequence(0),)
        )
        with pytest.raises(PlanError, match="explicit seeds"):
            execute(plan)


class TestPlanSeedMode:
    """``SeedSpec.mode`` decides whether a trial's seed is split into a
    ``(graph, protocol)`` pair, so it changes bits: it is part of the
    fingerprint and of an explicit seed token, and a spool written under
    one mode does not resume under the other."""

    GRID = ParameterGrid(n=[64], c=[1.5], d=[4])

    def _plan(self, mode, **kw):
        graph = build_point_graph({"n": 64}, np.random.SeedSequence(5).spawn(3)[-1])
        return R._saer_plan(
            self.GRID, trials=2, seed=5, processes=1, graph=graph,
            seed_mode=mode, **kw,
        )

    def test_fingerprint_includes_seed_mode(self):
        pair = plan_fingerprint(self._plan("pair"))
        direct = plan_fingerprint(self._plan("direct"))
        assert pair != direct

    def test_describe_reports_seed_mode(self):
        assert self._plan("direct").describe()["seed_mode"] == "direct"

    def test_resume_under_different_mode_rejected(self, tmp_path):
        spool = str(tmp_path / "spool")
        execute(self._plan("direct", spool=spool))
        with pytest.raises(ResumeMismatchError):
            execute(self._plan("pair", spool=spool), resume=spool)

    def test_explicit_seed_token_carries_mode(self):
        pair = seed_token(SeedSpec(seeds=(1, 2, 3)))
        direct = seed_token(SeedSpec(seeds=(1, 2, 3), mode="direct"))
        assert len(pair) == 2  # historical 2-element shape kept for "pair"
        assert direct == pair + ["direct"]  # the mode is bit-determining


class TestResultTableHelpers:
    def _table(self):
        return assemble_blocks(
            [
                ResultBlock.from_records({"n": 64, "fam": "a"}, [0], [{"v": 1.0}]),
                ResultBlock.from_records({"n": 128, "fam": "a"}, [0], [{"v": 2.0}]),
                ResultBlock.from_records({"n": 64, "fam": "b"}, [0], [{"v": 3.0}]),
            ]
        )

    def test_where_filters_rows(self):
        t = self._table()
        sub = t.where(n=64)
        assert len(sub) == 2 and [r["v"] for r in sub] == [1.0, 3.0]
        sub2 = t.where(n=64, fam="b")
        assert list(sub2) == [{"n": 64, "fam": "b", "trial": 0, "v": 3.0}]

    def test_where_on_object_column(self):
        t = assemble_blocks([
            ResultBlock.from_records(
                {}, [0, 1, 2], [{"k": None, "v": 1}, {"k": 2, "v": 2}, {"k": None, "v": 3}]
            )
        ])
        assert t.column("k").dtype == object
        assert [r["v"] for r in t.where(k=None)] == [1, 3]


class TestPlanSmoke:
    def test_smoke_covers_backends(self):
        from repro.experiments.smoke import run_plan_smoke

        rows, ok = run_plan_smoke(only=["E1", "E5"], processes=1)
        assert ok
        by_exp = {(r["experiment"], r["backend"]) for r in rows}
        # E1 declares the backend axis → two runs; E5 has one canonical path.
        assert ("E1", "reference") in by_exp and ("E1", "batched") in by_exp
        assert ("E5", "reference") in by_exp and ("E5", "batched") not in by_exp
        assert all(r["status"] == "ok" for r in rows)

    def test_smoke_unknown_only_filter_fails(self):
        from repro.experiments.smoke import run_plan_smoke

        rows, ok = run_plan_smoke(only=["E99"], processes=1)
        assert not ok
        assert rows and rows[0]["status"].startswith("error: unknown experiment")

    def test_smoke_only_filter_strips_whitespace(self):
        from repro.experiments.smoke import run_plan_smoke

        rows, ok = run_plan_smoke(only=[" e5 "], processes=1)
        assert ok and {r["experiment"] for r in rows} == {"E5"}


class TestFamilyVocabulary:
    def test_canonical_degree_matches_runner_alias(self):
        assert canonical_degree(1024) == 100

    def test_family_spec_defaults(self):
        fam, _builder, params = family_spec({"n": 256})
        assert fam == "regular" and params["degree"] == canonical_degree(256)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown graph family"):
            family_spec({"n": 64, "family": "hypercube"})
