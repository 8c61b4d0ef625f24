"""Tests for the process-pool harness, sweeps and aggregation."""

import numpy as np
import pytest

from repro.parallel import (
    ParameterGrid,
    aggregate_records,
    map_parallel,
    run_sweep,
    summarize,
)
from repro.parallel.pool import default_processes


def _square(x):
    return x * x


def _point(point, seed_seq, trial):
    rng = np.random.default_rng(seed_seq)
    return {"value": point["a"] * 10 + float(rng.random())}


def _point_block(point, seed_seqs, trials):
    """Batch-capable twin of _point: one call per grid point."""
    return [_point(point, s, t) for s, t in zip(seed_seqs, trials)]


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
    """Trials at one setting: :func:`run_sweep` on a one-point grid,
    which spawns the per-trial seeds ``spawn_seeds(seed, n_trials)``."""

    @staticmethod
    def _run(n_trials, seed, processes=1):
        return run_sweep(_point, [{"a": 0}], n_trials=n_trials, seed=seed, processes=processes)

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
        with pytest.raises(ValueError):
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
        recs = run_sweep(_point, grid, n_trials=3, seed=0, processes=1)
        assert len(recs) == 6
        assert {r["a"] for r in recs} == {1, 2}
        assert {r["trial"] for r in recs} == {0, 1, 2}

    def test_deterministic_and_pool_invariant(self):
        grid = ParameterGrid(a=[1, 2, 3])
        a = run_sweep(_point, grid, n_trials=2, seed=9, processes=1)
        b = run_sweep(_point, grid, n_trials=2, seed=9, processes=3)
        assert a == b

    def test_batched_backend_matches_per_trial(self):
        # Same (point, trial) seeds under both backends ⇒ same records.
        grid = ParameterGrid(a=[1, 2, 3])
        a = run_sweep(_point, grid, n_trials=4, seed=9, processes=1)
        b = run_sweep(
            _point_block, grid, n_trials=4, seed=9, processes=1, backend="batched"
        )
        assert a == b

    def test_batched_backend_pool_invariant(self):
        grid = ParameterGrid(a=[1, 2])
        a = run_sweep(_point_block, grid, n_trials=3, seed=5, processes=1, backend="batched")
        b = run_sweep(_point_block, grid, n_trials=3, seed=5, processes=2, backend="batched")
        assert a == b

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            run_sweep(_point, ParameterGrid(a=[1]), backend="gpu")


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


def _point_block_as_block(point, seed_seqs, trials):
    """Batch worker that returns a ResultBlock directly."""
    records = [_point(point, s, t) for s, t in zip(seed_seqs, trials)]
    return ResultBlock.from_records(point, trials, records)


def _short_block(point, seed_seqs, trials):
    return ResultBlock.from_records(point, trials[:1], [{"value": 0.0}])


class TestColumnarSweep:
    """results="columnar" must be record-for-record identical."""

    GRID = dict(a=[1, 2, 3], b=["x", "y"])

    def test_batched_columnar_matches_records(self):
        grid = ParameterGrid(**self.GRID)
        recs = run_sweep(
            _point_block, grid, n_trials=4, seed=9, processes=1, backend="batched"
        )
        table = run_sweep(
            _point_block, grid, n_trials=4, seed=9, processes=1,
            backend="batched", results="columnar",
        )
        assert isinstance(table, ResultTable)
        assert list(table) == recs

    def test_per_trial_columnar_matches_records(self):
        grid = ParameterGrid(**self.GRID)
        recs = run_sweep(_point, grid, n_trials=3, seed=2, processes=1)
        table = run_sweep(
            _point, grid, n_trials=3, seed=2, processes=1, results="columnar"
        )
        assert list(table) == recs

    def test_parallel_columnar_matches_serial(self):
        grid = ParameterGrid(a=[1, 2], b=["x"])
        a = run_sweep(
            _point_block, grid, n_trials=4, seed=5, processes=1,
            backend="batched", results="columnar",
        )
        b = run_sweep(
            _point_block, grid, n_trials=4, seed=5, processes=2,
            backend="batched", results="columnar",
        )
        assert list(a) == list(b)

    def test_point_fn_may_return_blocks(self):
        grid = ParameterGrid(**self.GRID)
        via_dicts = run_sweep(
            _point_block, grid, n_trials=3, seed=7, processes=1,
            backend="batched", results="columnar",
        )
        via_blocks = run_sweep(
            _point_block_as_block, grid, n_trials=3, seed=7, processes=1,
            backend="batched", results="columnar",
        )
        assert list(via_blocks) == list(via_dicts)
        # and in records mode a returned block is unpacked to dicts
        recs = run_sweep(
            _point_block_as_block, grid, n_trials=3, seed=7, processes=1,
            backend="batched",
        )
        assert recs == list(via_dicts)

    def test_wrong_length_block_rejected(self):
        grid = ParameterGrid(a=[1])
        with pytest.raises(ValueError, match="block of 1"):
            run_sweep(
                _short_block, grid, n_trials=3, seed=0, processes=1,
                backend="batched", results="columnar",
            )

    def test_unknown_results_mode_rejected(self):
        with pytest.raises(ValueError, match="results mode"):
            run_sweep(
                _point, ParameterGrid(a=[1]), n_trials=1, seed=0, results="arrow"
            )

    def test_zero_trials_columnar(self):
        table = run_sweep(
            _point_block, ParameterGrid(a=[1]), n_trials=0, seed=0,
            backend="batched", results="columnar",
        )
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
        assert block.records() == want
        assert clone.records() == want
        # materialized values are python scalars (json-safe)
        assert type(block.records()[0]["rounds"]) is int
        assert type(block.records()[0]["ok"]) is bool

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
        recs = [{"a": 1, "v": 2.0}, {"a": 2, "v": 3.0}]
        t = ResultTable.from_records(recs)
        assert list(t) == recs


class TestAggregateColumnarFastPath:
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
        table = ResultTable.from_records(recs)
        want = aggregate_records(recs, ["family", "n"], ["rounds", "ok", "maybe"])
        got = aggregate_records(table, ["family", "n"], ["rounds", "ok", "maybe"])
        assert got == want

    def test_first_seen_group_order(self):
        recs = self._records()[::-1]  # reversed: order must follow input
        table = ResultTable.from_records(recs)
        want = aggregate_records(recs, ["family", "n"], ["rounds"])
        got = aggregate_records(table, ["family", "n"], ["rounds"])
        assert got == want
        assert [r["family"] for r in got] == [r["family"] for r in want]

    def test_empty_table(self):
        assert aggregate_records(ResultTable.from_records([]), ["a"], ["v"]) == []

    def test_missing_field_matches_dict_path(self):
        recs = self._records()
        table = ResultTable.from_records(recs)
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


def _ragged_block(point, seed_seqs, trials):
    """Worker with a conditional record key (trial 0 lacks 'err')."""
    out = []
    for s, t in zip(seed_seqs, trials):
        rec = _point(point, s, t)
        if t > 0:
            rec["err"] = float(t) / 10
        out.append(rec)
    return out


class TestColumnarHeterogeneousRecords:
    def test_conditional_keys_survive(self):
        grid = ParameterGrid(a=[1, 2])
        table = run_sweep(
            _ragged_block, grid, n_trials=3, seed=4, processes=1,
            backend="batched", results="columnar",
        )
        recs = run_sweep(
            _ragged_block, grid, n_trials=3, seed=4, processes=1, backend="batched"
        )
        assert "err" in table.fields
        for got, want in zip(table, recs):
            want = dict(want)
            want.setdefault("err", None)  # absent key materializes as None
            assert got == want
        agg_t = aggregate_records(table, ["a"], ["err"])
        agg_r = aggregate_records(recs, ["a"], ["err"])
        assert agg_t == agg_r
