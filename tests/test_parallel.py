"""Tests for the process-pool harness, sweeps and aggregation."""

import numpy as np
import pytest

from repro.errors import PlanError
from repro.graphs import random_regular_bipartite
from repro.parallel import (
    ParameterGrid,
    aggregate_records,
    map_parallel,
    summarize,
)
from repro.parallel.pool import default_processes
from repro.plan import (
    BackendSpec,
    ExecSpec,
    GraphSpec,
    RunPlan,
    SeedSpec,
    WorkSpec,
    execute,
)


def _square(x):
    return x * x


def _point(graph, point, seed_seq):
    rng = np.random.default_rng(seed_seq)
    return {"value": point["a"] * 10 + float(rng.random())}


def _point_block(graph, point, seed_seqs):
    """Batch-capable twin of _point: one call per grid point."""
    return [_point(graph, point, s) for s in seed_seqs]


_GRAPH = random_regular_bipartite(8, 2, seed=0)


def _sweep(grid, trials, seed, *, processes=1, record=_point, batch=None):
    """``execute`` with each task seed handed unsplit to the work.

    The work ignores its (pinned) graph, so the reference backend calls
    ``record`` and the batched backend ``batch`` on the same seeds.
    """
    return execute(RunPlan(
        grid=grid,
        work=WorkSpec(record=record, batch=batch),
        trials=trials,
        seeds=SeedSpec(root=seed, mode="direct"),
        backend=BackendSpec(name="batched" if batch is not None else "reference"),
        graph=GraphSpec(graph=_GRAPH),
        execution=ExecSpec(processes=processes),
    ))


class TestMapParallel:
    def test_serial_matches_comprehension(self):
        assert map_parallel(_square, [1, 2, 3], processes=1) == [1, 4, 9]

    def test_parallel_preserves_order(self):
        out = map_parallel(_square, list(range(40)), processes=4)
        assert out == [x * x for x in range(40)]

    def test_empty(self):
        assert map_parallel(_square, [], processes=4) == []

    def test_default_processes_bounds(self):
        assert default_processes(1) == 1
        assert default_processes(1000) >= 1


class TestMonteCarlo:
    """Trials at one setting: ``execute`` on a one-point grid, which
    spawns the per-trial seeds ``spawn_seeds(seed, n_trials)``."""

    @staticmethod
    def _run(n_trials, seed, processes=1):
        return list(_sweep([{"a": 0}], n_trials, seed, processes=processes))

    def test_trial_count_and_order(self):
        out = self._run(5, seed=1)
        assert [r["trial"] for r in out] == list(range(5))

    def test_deterministic_for_seed(self):
        assert self._run(6, seed=42) == self._run(6, seed=42)

    def test_serial_parallel_identical(self):
        """Results must not depend on the degree of parallelism."""
        assert self._run(8, seed=7) == self._run(8, seed=7, processes=4)

    def test_trials_independent(self):
        vals = [r["value"] for r in self._run(10, seed=0)]
        assert len(set(vals)) == 10

    def test_zero_trials(self):
        assert self._run(0, seed=0) == []

    def test_negative_rejected(self):
        with pytest.raises(PlanError):
            self._run(-1, seed=0)


class TestParameterGrid:
    def test_points_row_major(self):
        grid = ParameterGrid(a=[1, 2], b=["x", "y"])
        pts = grid.points()
        assert pts == [
            {"a": 1, "b": "x"},
            {"a": 1, "b": "y"},
            {"a": 2, "b": "x"},
            {"a": 2, "b": "y"},
        ]

    def test_len(self):
        assert len(ParameterGrid(a=[1, 2, 3], b=[1, 2])) == 6

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            ParameterGrid(a=[])
        with pytest.raises(ValueError):
            ParameterGrid()

    def test_iter(self):
        assert list(ParameterGrid(a=[5])) == [{"a": 5}]


class TestRunSweep:
    def test_record_shape(self):
        grid = ParameterGrid(a=[1, 2])
        recs = _sweep(grid, 3, 0)
        assert len(recs) == 6
        assert {r["a"] for r in recs} == {1, 2}
        assert {r["trial"] for r in recs} == {0, 1, 2}

    def test_deterministic_and_pool_invariant(self):
        grid = ParameterGrid(a=[1, 2, 3])
        a = _sweep(grid, 2, 9, processes=1)
        b = _sweep(grid, 2, 9, processes=3)
        assert list(a) == list(b)

    def test_batched_backend_matches_per_trial(self):
        # Same (point, trial) seeds under both backends ⇒ same records.
        grid = ParameterGrid(a=[1, 2, 3])
        a = _sweep(grid, 4, 9)
        b = _sweep(grid, 4, 9, batch=_point_block)
        assert list(a) == list(b)

    def test_batched_backend_pool_invariant(self):
        grid = ParameterGrid(a=[1, 2])
        a = _sweep(grid, 3, 5, processes=1, batch=_point_block)
        b = _sweep(grid, 3, 5, processes=2, batch=_point_block)
        assert list(a) == list(b)

    def test_unknown_backend_rejected(self):
        plan = RunPlan(
            grid=ParameterGrid(a=[1]), work=WorkSpec(record=_point),
            backend=BackendSpec(name="gpu"),
        )
        with pytest.raises(PlanError, match="unknown backend"):
            execute(plan)


class TestSummarize:
    def test_basic_stats(self):
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert s["mean"] == 2.5
        assert s["min"] == 1.0 and s["max"] == 4.0
        assert s["median"] == 2.5
        assert s["n"] == 4
        assert s["ci95"] > 0

    def test_single_value(self):
        s = summarize([7.0])
        assert s["mean"] == 7.0 and s["std"] == 0.0 and s["ci95"] == 0.0

    def test_empty(self):
        s = summarize([])
        assert s["n"] == 0
        assert np.isnan(s["mean"])


class TestAggregateRecords:
    def test_grouping_and_stats(self):
        recs = [
            {"g": "a", "v": 1.0},
            {"g": "a", "v": 3.0},
            {"g": "b", "v": 10.0},
        ]
        rows = aggregate_records(recs, group_by=["g"], fields=["v"])
        assert len(rows) == 2
        a_row = rows[0]
        assert a_row["g"] == "a"
        assert a_row["trials"] == 2
        assert a_row["v_mean"] == 2.0
        assert a_row["v_max"] == 3.0

    def test_first_seen_order(self):
        recs = [{"g": "z", "v": 1}, {"g": "a", "v": 2}]
        rows = aggregate_records(recs, group_by=["g"], fields=["v"])
        assert [r["g"] for r in rows] == ["z", "a"]

    def test_bool_field_becomes_rate(self):
        recs = [{"g": 1, "ok": True}, {"g": 1, "ok": False}]
        rows = aggregate_records(recs, group_by=["g"], fields=["ok"])
        assert rows[0]["ok_mean"] == 0.5


# ---------------------------------------------------------------------------
# Columnar results spool
# ---------------------------------------------------------------------------

from repro.batch.results import ResultBlock  # noqa: E402
from repro.parallel import ResultTable, assemble_blocks  # noqa: E402


def _point_block_as_block(graph, point, seed_seqs):
    """Batch worker that returns a ResultBlock directly."""
    records = [_point(graph, point, s) for s in seed_seqs]
    return ResultBlock.from_records(point, range(len(records)), records)


def _short_block(graph, point, seed_seqs):
    return ResultBlock.from_records(point, [0], [{"value": 0.0}])


class TestColumnarSweep:
    """Every sweep returns a ``ResultTable`` whose rows are exactly the
    ``{**point, "trial": t, **record}`` dicts."""

    GRID = dict(a=[1, 2, 3], b=["x", "y"])

    @staticmethod
    def _records(grid, trials, seed):
        """The rows a sweep must produce, built by hand."""
        seeds = iter(np.random.SeedSequence(seed).spawn(len(grid) * trials))
        return [
            {**point, "trial": t, **_point(None, point, next(seeds))}
            for point in grid.points()
            for t in range(trials)
        ]

    def test_batched_columnar_matches_records(self):
        grid = ParameterGrid(**self.GRID)
        table = _sweep(grid, 4, 9, batch=_point_block)
        assert isinstance(table, ResultTable)
        assert list(table) == self._records(grid, 4, 9)

    def test_per_trial_columnar_matches_records(self):
        grid = ParameterGrid(**self.GRID)
        table = _sweep(grid, 3, 2)
        assert isinstance(table, ResultTable)
        assert list(table) == self._records(grid, 3, 2)

    def test_parallel_columnar_matches_serial(self):
        grid = ParameterGrid(a=[1, 2], b=["x"])
        a = _sweep(grid, 4, 5, processes=1, batch=_point_block)
        b = _sweep(grid, 4, 5, processes=2, batch=_point_block)
        assert list(a) == list(b)

    def test_point_fn_may_return_blocks(self):
        grid = ParameterGrid(**self.GRID)
        via_dicts = _sweep(grid, 3, 7, batch=_point_block)
        via_blocks = _sweep(grid, 3, 7, batch=_point_block_as_block)
        assert list(via_blocks) == list(via_dicts)

    def test_wrong_length_block_rejected(self):
        with pytest.raises(ValueError, match="block of 1"):
            _sweep(ParameterGrid(a=[1]), 3, 0, batch=_short_block)

    def test_zero_trials_columnar(self):
        table = _sweep(ParameterGrid(a=[1]), 0, 0, batch=_point_block)
        assert len(table) == 0 and list(table) == []


class TestResultBlock:
    def test_roundtrip(self):
        point = {"n": 4, "family": "regular"}
        records = [
            {"rounds": 3, "ok": True, "score": 0.5},
            {"rounds": 5, "ok": False, "score": 1.25},
        ]
        block = ResultBlock.from_records(point, [0, 1], records)
        assert block.n_trials == 2 and len(block) == 2
        assert block.fields == ["rounds", "ok", "score"]
        data = block.to_structured()
        assert data["rounds"].dtype.kind == "i"
        assert data["ok"].dtype.kind == "b"
        clone = ResultBlock.from_structured(point, block.trials, data)
        want = [
            {"n": 4, "family": "regular", "trial": 0, "rounds": 3, "ok": True, "score": 0.5},
            {"n": 4, "family": "regular", "trial": 1, "rounds": 5, "ok": False, "score": 1.25},
        ]
        rows = assemble_blocks([block]).to_records()
        assert rows == want
        assert assemble_blocks([clone]).to_records() == want
        # materialized values are python scalars (json-safe)
        assert type(rows[0]["rounds"]) is int
        assert type(rows[0]["ok"]) is bool

    def test_cardinality_validated(self):
        with pytest.raises(ValueError):
            ResultBlock.from_records({}, [0, 1], [{"v": 1}])


class TestResultTable:
    def _table(self):
        blocks = [
            ResultBlock.from_records({"a": 1}, [0, 1], [{"v": 1.0}, {"v": 2.0}]),
            ResultBlock.from_records({"a": 2}, [0, 1], [{"v": 3.0}, {"v": 4.0}]),
        ]
        return assemble_blocks(blocks)

    def test_sequence_protocol(self):
        t = self._table()
        assert len(t) == 4
        assert t[0] == {"a": 1, "trial": 0, "v": 1.0}
        assert t[-1] == {"a": 2, "trial": 1, "v": 4.0}
        assert t[1:3] == [t[1], t[2]]
        assert [r["v"] for r in t] == [1.0, 2.0, 3.0, 4.0]
        with pytest.raises(IndexError):
            t[4]

    def test_columns_typed(self):
        t = self._table()
        assert t.column("v").dtype == np.float64
        assert t.column("a").dtype.kind == "i"
        assert t.to_records() == list(t)
        assert t.nbytes > 0

    def test_from_records(self):
        recs = [{"v": 2.0, "tag": "x"}, {"v": 3.0, "tag": "yz"}]
        t = assemble_blocks([ResultBlock.from_records({"a": 1}, [0, 1], recs)])
        assert list(t) == [{"a": 1, "trial": i, **r} for i, r in enumerate(recs)]


def _table_of(records):
    """One table holding ``records``, each of which carries its ``trial``."""
    block = ResultBlock.from_records(
        {},
        [r["trial"] for r in records],
        [{k: v for k, v in r.items() if k != "trial"} for r in records],
    )
    return assemble_blocks([block])


class TestAggregateColumnarFastPath:
    """A table aggregates to the same rows as its record dicts."""

    def _records(self):
        rng = np.random.default_rng(3)
        recs = []
        for fam in ("reg", "er"):
            for n in (64, 128):
                for trial in range(6):
                    recs.append(
                        {
                            "family": fam,
                            "n": n,
                            "trial": trial,
                            "rounds": int(rng.integers(1, 20)),
                            "ok": bool(rng.random() < 0.7),
                            "maybe": None if trial == 0 else float(rng.random()),
                        }
                    )
        return recs

    def test_matches_dict_path(self):
        recs = self._records()
        table = _table_of(recs)
        want = aggregate_records(recs, ["family", "n"], ["rounds", "ok", "maybe"])
        got = aggregate_records(table, ["family", "n"], ["rounds", "ok", "maybe"])
        assert got == want

    def test_first_seen_group_order(self):
        recs = self._records()[::-1]  # reversed: order must follow input
        table = _table_of(recs)
        want = aggregate_records(recs, ["family", "n"], ["rounds"])
        got = aggregate_records(table, ["family", "n"], ["rounds"])
        assert got == want
        assert [r["family"] for r in got] == [r["family"] for r in want]

    def test_empty_table(self):
        assert aggregate_records(assemble_blocks([]), ["a"], ["v"]) == []

    def test_missing_field_matches_dict_path(self):
        recs = self._records()
        table = _table_of(recs)
        want = aggregate_records(recs, ["family"], ["absent"])
        got = aggregate_records(table, ["family"], ["absent"])
        assert got == want


class TestWorkerState:
    def test_singleton_per_process(self):
        from repro.parallel import worker_state

        a = worker_state()
        b = worker_state()
        assert a is b
        assert a.engine_buffers is b.engine_buffers


def _ragged_block(graph, point, seed_seqs):
    """Worker with a conditional record key (trial 0 lacks 'err')."""
    out = []
    for t, s in enumerate(seed_seqs):
        rec = _point(graph, point, s)
        if t > 0:
            rec["err"] = float(t) / 10
        out.append(rec)
    return out


class TestColumnarHeterogeneousRecords:
    def test_conditional_keys_survive(self):
        grid = ParameterGrid(a=[1, 2])
        table = _sweep(grid, 3, 4, batch=_ragged_block)
        seeds = iter(np.random.SeedSequence(4).spawn(6))
        recs = [
            {**point, "trial": t, **rec}
            for point in grid.points()
            for t, rec in enumerate(_ragged_block(None, point, [next(seeds) for _ in range(3)]))
        ]
        assert "err" in table.fields
        for got, want in zip(table, recs):
            want = dict(want)
            want.setdefault("err", None)  # absent key materializes as None
            assert got == want
        agg_t = aggregate_records(table, ["a"], ["err"])
        agg_r = aggregate_records(recs, ["a"], ["err"])
        assert agg_t == agg_r
