"""Tests for durable execution (:mod:`repro.durable`).

Four pillars:

* **supervisor** — :func:`supervised_map` survives worker death
  (SIGKILL), quarantines poison tasks after a solo probation run,
  enforces per-task timeouts, and retries exceptions per policy;
* **journal** — torn tails are tolerated on read *and* repaired on the
  next append; the plan fingerprint includes exactly the axes that can
  change result bits;
* **spool** — block files round-trip :class:`ResultBlock` s exactly
  (object columns included), and corruption is detected by checksum;
* **durable execute** — a spool-sink run is bit-identical to the
  in-memory control across backends, resumes cleanly from torn /
  missing / corrupt state, rejects mismatched plans, and quarantines a
  poison grid point as a structured failure row.

Pool-backed tests use ``processes=2`` explicitly (CI may be a 1-core
box) and module-level task functions (fork pickles by reference).
"""

from __future__ import annotations

import json
import os
import signal
import time
from pathlib import Path

import numpy as np
import pytest

import repro.plan as plan_mod
from repro.batch.results import ResultBlock
from repro.durable import (
    JournalWriter,
    RetryPolicy,
    SpoolReader,
    TaskFailure,
    failure_block,
    plan_fingerprint,
    read_block,
    read_journal,
    supervised_map,
    write_block,
)
from repro.errors import (
    PlanError,
    ResumeMismatchError,
    SpoolCorruptError,
    WorkerCrashError,
)
from repro.parallel import assemble_blocks
from repro.parallel.sweep import ParameterGrid
from repro.plan import (
    BackendSpec,
    ExecSpec,
    GraphSpec,
    ResultSpec,
    RunPlan,
    SeedSpec,
    WorkSpec,
    execute,
)

# ---------------------------------------------------------------------------
# Module-level task functions (pool workers pickle them by reference)
# ---------------------------------------------------------------------------


def _square(task):
    return task * task


def _crash_once(task):
    """SIGKILL our worker the first time the marked item runs."""
    idx, marker_dir = task
    if idx == 2:
        marker = Path(marker_dir) / "crashed"
        if not marker.exists():
            marker.touch()
            os.kill(os.getpid(), signal.SIGKILL)
    return idx * 10


def _poison(task):
    """One item crashes its worker on every attempt."""
    idx = task
    if idx == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return idx + 100


def _sleepy(task):
    idx, secs = task
    time.sleep(secs)
    return idx


def _raise_once(task):
    idx, marker_dir = task
    marker = Path(marker_dir) / f"raised-{idx}"
    if idx == 1 and not marker.exists():
        marker.touch()
        raise ValueError("transient")
    return idx


def _always_raises(task):
    raise RuntimeError(f"task {task} is broken")


# -- durable-execute work functions -----------------------------------------


def _seeded_record(graph, point, seed):
    rng = np.random.default_rng(seed)
    return {
        "n": point["n"],
        "draw": float(rng.random()),
        "tag": f"n{point['n']}",  # object column: exercises JSON encoding
    }


def _seeded_batch(graph, point, seeds):
    return [_seeded_record(graph, point, s) for s in seeds]


def _overstaying_record(graph, point, seed):
    time.sleep(10.0)
    return _seeded_record(graph, point, seed)


def _poison_point_record(graph, point, seed):
    if point["n"] == 96:
        raise ValueError("poison point")
    return _seeded_record(graph, point, seed)


# ---------------------------------------------------------------------------
# RetryPolicy
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0).validate()
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5).validate()
        with pytest.raises(ValueError):
            RetryPolicy(task_timeout=0).validate()
        with pytest.raises(ValueError):
            RetryPolicy(on_failure="explode").validate()
        RetryPolicy().validate()

    def test_delay_deterministic_and_capped(self):
        p = RetryPolicy(base_delay=0.1, max_delay=1.0, jitter=0.5)
        assert p.delay(2, "k") == p.delay(2, "k")
        assert p.delay(2, "k") != p.delay(3, "k")  # jitter varies per attempt
        for attempts in range(1, 12):
            d = p.delay(attempts, 0)
            assert 0 <= d <= p.max_delay

    def test_no_jitter_is_exact_exponential(self):
        p = RetryPolicy(base_delay=0.1, max_delay=10.0, jitter=0.0)
        assert p.delay(1, 0) == pytest.approx(0.1)
        assert p.delay(3, 0) == pytest.approx(0.4)


# ---------------------------------------------------------------------------
# supervised_map
# ---------------------------------------------------------------------------


class TestSupervisedMapSerial:
    def test_plain_map(self):
        assert supervised_map(_square, [1, 2, 3], processes=1) == [1, 4, 9]

    def test_on_result_fires_in_order(self):
        seen = []
        supervised_map(
            _square, [1, 2, 3], processes=1, on_result=lambda i, r: seen.append((i, r))
        )
        assert seen == [(0, 1), (1, 4), (2, 9)]

    def test_exception_propagates_by_default(self):
        with pytest.raises(RuntimeError, match="broken"):
            supervised_map(_always_raises, [0], processes=1)

    def test_retry_exceptions_recovers(self, tmp_path):
        policy = RetryPolicy(retry_exceptions=True, base_delay=0.0)
        items = [(i, str(tmp_path)) for i in range(3)]
        assert supervised_map(_raise_once, items, processes=1, policy=policy) == [0, 1, 2]

    def test_exhausted_retries_return_taskfailure(self):
        policy = RetryPolicy(
            max_attempts=2, base_delay=0.0, retry_exceptions=True, on_failure="return"
        )
        out = supervised_map(_always_raises, [7], processes=1, policy=policy)
        (failure,) = out
        assert isinstance(failure, TaskFailure)
        assert failure.kind == "exception"
        assert failure.attempts == 2
        assert "broken" in failure.error


class TestSupervisedMapPool:
    def test_survives_worker_sigkill(self, tmp_path):
        items = [(i, str(tmp_path)) for i in range(5)]
        policy = RetryPolicy(base_delay=0.0)
        out = supervised_map(_crash_once, items, processes=2, policy=policy)
        assert out == [0, 10, 20, 30, 40]
        assert (tmp_path / "crashed").exists()  # the crash really happened

    def test_poison_task_quarantined(self):
        policy = RetryPolicy(max_attempts=2, base_delay=0.0, on_failure="return")
        out = supervised_map(_poison, [0, 1, 2, 3], processes=2, policy=policy)
        assert out[0] == 100 and out[2] == 102 and out[3] == 103
        failure = out[1]
        assert isinstance(failure, TaskFailure)
        assert failure.kind == "crash"
        # max_attempts blamed crashes + the confirming solo probation run
        assert failure.attempts == 3

    def test_poison_task_raises_under_default_policy(self):
        policy = RetryPolicy(max_attempts=2, base_delay=0.0)
        with pytest.raises(WorkerCrashError):
            supervised_map(_poison, [0, 1, 2], processes=2, policy=policy)

    def test_task_timeout_quarantines_only_the_overdue(self):
        policy = RetryPolicy(
            max_attempts=1, base_delay=0.0, task_timeout=1.0, on_failure="return"
        )
        items = [(0, 0.0), (1, 30.0), (2, 0.0)]
        out = supervised_map(_sleepy, items, processes=2, policy=policy)
        assert out[0] == 0 and out[2] == 2
        failure = out[1]
        assert isinstance(failure, TaskFailure)
        assert failure.kind == "timeout"


# ---------------------------------------------------------------------------
# Journal
# ---------------------------------------------------------------------------


def _write_journal(path, *, fingerprint="f" * 64, entries=()):
    with JournalWriter(path) as w:
        w.write_header(
            fingerprint=fingerprint, work="t", points=4, trials=2,
            backend="reference", processes=1,
        )
        for e in entries:
            w.append(e)


class TestJournal:
    def test_roundtrip_last_entry_wins(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with JournalWriter(path) as w:
            w.write_header(
                fingerprint="f" * 64, work="t", points=2, trials=1,
                backend="reference", processes=1,
            )
            w.failure(
                0, point_params={"n": 64}, failure_kind="crash",
                error="boom", exc_type="X", attempts=3,
            )
            w.block(0, file="blocks/b0.npz", sha256="a" * 64, rows=1, point_params={"n": 64})
        header, entries = read_journal(path)
        assert header["fingerprint"] == "f" * 64
        assert header["processes"] == 1
        assert entries[0]["kind"] == "block"  # the re-run superseded the failure

    def test_torn_tail_skipped_on_read(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        _write_journal(path)
        with open(path, "ab") as fh:
            fh.write(b'{"kind": "blo')  # SIGKILL mid-write
        with pytest.warns(UserWarning, match="torn"):
            header, entries = read_journal(path)
        assert header is not None and entries == {}

    def test_torn_tail_repaired_before_next_append(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        _write_journal(path)
        with open(path, "ab") as fh:
            fh.write(b'{"kind": "blo')
        # The next writer must not merge its first entry into the torn
        # line (that would lose both).
        with JournalWriter(path) as w:
            w.block(1, file="blocks/b1.npz", sha256="c" * 64, rows=2, point_params={"n": 96})
        with pytest.warns(UserWarning, match="torn"):
            _header, entries = read_journal(path)
        assert entries[1]["file"] == "blocks/b1.npz"

    def test_missing_header_is_corrupt(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text('{"kind": "block", "point": 0}\n')
        with pytest.raises(SpoolCorruptError, match="header"):
            read_journal(path)


def _fingerprint_plan(**overrides):
    base = dict(
        grid=ParameterGrid(n=[64, 96]),
        work=WorkSpec(record=_seeded_record, batch=_seeded_batch, name="fp-test"),
        trials=2,
        seeds=SeedSpec(root=11),
    )
    base.update(overrides)
    return RunPlan(**base)


class TestPlanFingerprint:
    def test_bit_determining_axes_change_it(self):
        base = plan_fingerprint(_fingerprint_plan())
        assert plan_fingerprint(_fingerprint_plan(trials=3)) != base
        assert plan_fingerprint(_fingerprint_plan(seeds=SeedSpec(root=12))) != base
        assert plan_fingerprint(_fingerprint_plan(grid=ParameterGrid(n=[64]))) != base
        assert (
            plan_fingerprint(_fingerprint_plan(backend=BackendSpec(name="batched")))
            != base
        )

    def test_bit_identical_axes_do_not(self):
        base = plan_fingerprint(_fingerprint_plan())
        same = [
            _fingerprint_plan(execution=ExecSpec(processes=4)),
            _fingerprint_plan(execution=ExecSpec(processes=1)),
            _fingerprint_plan(graph=GraphSpec(cache_dir="/tmp/cache")),
            _fingerprint_plan(results=ResultSpec(dir="/tmp/x")),
        ]
        for plan in same:
            assert plan_fingerprint(plan) == base

    def test_fingerprints_of_existing_spools_are_stable(self):
        """The hex of one plan per graph source, as computed before the
        plan fields that never reached the hash were removed: a spool
        written then must still resume."""
        from repro.experiments.runners import _saer_plan
        from repro.graphs.families import build_point_graph

        grid = ParameterGrid(n=[64], c=[1.5, 4.0], d=[4])
        graph = build_point_graph({"n": 64}, np.random.SeedSequence(13).spawn(5)[-1])
        plans = {
            "generate": _saer_plan(grid, trials=2, seed=13, processes=1),
            "cached": _saer_plan(
                grid, trials=2, seed=13, processes=1, graph_cache="/nonexistent/cache"
            ),
            "pinned": _saer_plan(grid, trials=2, seed=13, processes=1, graph=graph),
            "batched-spool": _saer_plan(
                grid, trials=2, seed=13, processes=1, backend="batched", spool="/x"
            ),
        }
        want = {
            "generate": "b945456f1bc9f06809b777c311b35e449d6e35721bfd7492741bbe6cce927258",
            "cached": "b945456f1bc9f06809b777c311b35e449d6e35721bfd7492741bbe6cce927258",
            "pinned": "b34e92eb133122e5d2c7c0e83ba64e02aa933902c968473b8e4f0fe984417e6f",
            "batched-spool": "f6e301c97e29d8ca84546043f3107fef65793001399c3d98449728abbecb76cd",
        }
        assert {k: plan_fingerprint(p) for k, p in plans.items()} == want


# ---------------------------------------------------------------------------
# Spool
# ---------------------------------------------------------------------------


def _sample_block(n=64):
    return ResultBlock.from_records(
        {"n": n, "c": 1.5},
        [0, 1, 2],
        [
            {"rounds": 4, "ratio": 0.5, "label": "a"},
            {"rounds": 5, "ratio": 0.25, "label": "b"},
            {"rounds": 6, "ratio": 0.125, "label": "c"},
        ],
    )


class TestSpool:
    def test_block_roundtrip_exact(self, tmp_path):
        block = _sample_block()
        rel, sha = write_block(tmp_path, 3, block)
        assert rel == "blocks/block-00003.npz"
        back = read_block(tmp_path, rel, sha256=sha)
        assert back.point == block.point
        assert back.fields == block.fields  # order preserved
        np.testing.assert_array_equal(back.trials, block.trials)
        assert assemble_blocks([back]).equals(assemble_blocks([block]))

    def test_object_column_survives_without_pickle(self, tmp_path):
        rel, sha = write_block(tmp_path, 0, _sample_block())
        back = read_block(tmp_path, rel, sha256=sha)
        assert list(back.data["label"]) == ["a", "b", "c"]
        assert back.data["label"].dtype == object

    def test_corrupt_block_fails_checksum(self, tmp_path):
        rel, sha = write_block(tmp_path, 0, _sample_block())
        (tmp_path / rel).write_bytes(b"garbage")
        with pytest.raises(SpoolCorruptError, match="checksum|missing|unreadable"):
            read_block(tmp_path, rel, sha256=sha)

    def test_verified_completed_drops_bad_blocks(self, tmp_path):
        block = _sample_block()
        rel0, sha0 = write_block(tmp_path, 0, block)
        rel1, sha1 = write_block(tmp_path, 1, block)
        with JournalWriter(tmp_path / "journal.jsonl") as w:
            w.write_header(
                fingerprint="f" * 64, work="t", points=2, trials=3,
                backend="reference", processes=1,
            )
            w.block(0, file=rel0, sha256=sha0, rows=3, point_params={"n": 64})
            w.block(1, file=rel1, sha256=sha1, rows=3, point_params={"n": 64})
        (tmp_path / rel1).write_bytes(b"torn")
        reader = SpoolReader(tmp_path)
        assert set(reader.completed) == {0, 1}
        assert set(reader.verified_completed()) == {0}

    def test_failure_block_shape(self):
        entry = {
            "point_params": {"n": 64},
            "failure_kind": "crash",
            "error": "boom",
            "attempts": 4,
        }
        block = failure_block(entry)
        (row,) = assemble_blocks([block])
        assert row["trial"] == -1
        assert row["failed"] is True and row["failure_kind"] == "crash"


# ---------------------------------------------------------------------------
# Durable execute
# ---------------------------------------------------------------------------


def _durable_plan(spool_dir=None, **overrides):
    base = dict(
        grid=ParameterGrid(n=[64, 96]),
        work=WorkSpec(record=_seeded_record, batch=_seeded_batch, name="durable-test"),
        trials=2,
        seeds=SeedSpec(root=123),
    )
    base.update(overrides)
    plan = RunPlan(**base)
    if spool_dir is not None:
        plan = plan.override(results=ResultSpec(dir=str(spool_dir)))
    return plan


class TestDurableExecute:
    @pytest.mark.parametrize("backend", ["reference", "batched"])
    def test_spool_matches_memory_control(self, tmp_path, backend):
        spec = BackendSpec(name=backend)
        control = execute(_durable_plan(backend=spec))
        spooled = execute(_durable_plan(tmp_path / "spool", backend=spec))
        assert spooled.equals(control)

    def test_pooled_spool_matches_serial_control(self, tmp_path):
        control = execute(_durable_plan())
        spooled = execute(
            _durable_plan(tmp_path / "spool", execution=ExecSpec(processes=2))
        )
        assert spooled.equals(control)

    def test_rerun_replays_without_recompute(self, tmp_path):
        spool = tmp_path / "spool"
        first = execute(_durable_plan(spool))
        blocks = sorted((spool / "blocks").iterdir())
        mtimes = [b.stat().st_mtime_ns for b in blocks]
        again = execute(_durable_plan(spool))
        assert again.equals(first)
        assert [b.stat().st_mtime_ns for b in blocks] == mtimes  # untouched

    def test_resume_after_damage_is_bit_identical(self, tmp_path):
        spool = tmp_path / "spool"
        control = execute(_durable_plan(spool))
        # Simulate a crashed run: one block gone, one corrupted, a torn
        # journal tail.
        reader = SpoolReader(spool)
        (spool / reader.entries[0]["file"]).unlink()
        (spool / reader.entries[1]["file"]).write_bytes(b"bit rot")
        with open(spool / "journal.jsonl", "ab") as fh:
            fh.write(b'{"kind": "blo')
        with pytest.warns(UserWarning, match="torn"):
            resumed = execute(_durable_plan(), resume=spool)
        assert resumed.equals(control)

    def test_resume_kwarg_adopts_spool_sink(self, tmp_path):
        spool = tmp_path / "spool"
        out = execute(_durable_plan(), resume=spool)
        assert (spool / "journal.jsonl").exists()
        assert out.equals(execute(_durable_plan()))

    def test_resume_contradicting_dir_rejected(self, tmp_path):
        plan = _durable_plan(tmp_path / "a")
        with pytest.raises(PlanError, match="contradicts"):
            execute(plan, resume=tmp_path / "b")

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        spool = tmp_path / "spool"
        execute(_durable_plan(spool))
        with pytest.raises(ResumeMismatchError):
            execute(_durable_plan(spool, trials=3))

    def test_spool_requires_reproducible_seeds(self, tmp_path):
        plan = _durable_plan(tmp_path / "s", seeds=SeedSpec(root=None))
        with pytest.raises(PlanError, match="reproducible"):
            plan.validate()

    def test_poison_point_becomes_failure_row(self, tmp_path):
        plan = _durable_plan(
            tmp_path / "spool",
            work=WorkSpec(record=_poison_point_record, name="poison-test"),
            execution=ExecSpec(retries=2),
        )
        table = execute(plan)
        rows = table.to_records()
        good = [r for r in rows if r.get("trial") != -1]
        bad = [r for r in rows if r.get("trial") == -1]
        assert len(good) == 2 and all(r["n"] == 64 for r in good)
        (failure,) = bad
        assert failure["n"] == 96
        assert failure["failed"] is True
        assert failure["failure_kind"] == "exception"
        assert failure["attempts"] == 2
        # The quarantine is journaled, so a later resume sees it too.
        reader = SpoolReader(tmp_path / "spool")
        assert set(reader.failures) == {1}

    def test_one_point_spool_run_stays_supervised(self, tmp_path):
        # One task at processes=2 still runs in a pool worker: in-process,
        # the timeout could not fire and the record would sleep it out.
        plan = _durable_plan(
            tmp_path / "spool",
            grid=ParameterGrid(n=[64]),
            trials=1,
            work=WorkSpec(record=_overstaying_record, name="overstay-test"),
            execution=ExecSpec(processes=2, retries=1, task_timeout=0.5),
        )
        t0 = time.monotonic()
        (row,) = execute(plan)
        assert time.monotonic() - t0 < 8.0
        assert row["trial"] == -1 and row["failure_kind"] == "timeout"
        assert set(SpoolReader(tmp_path / "spool").failures) == {0}

    def test_journal_header_records_resolved_processes(self, tmp_path):
        spool = tmp_path / "spool"
        execute(_durable_plan(spool, execution=ExecSpec(processes=2)))
        header, _entries = read_journal(spool / "journal.jsonl")
        assert header["processes"] == 2


# ---------------------------------------------------------------------------
# ExecSpec ergonomics
# ---------------------------------------------------------------------------


class TestOversubscriptionWarning:
    def test_warns_once(self, monkeypatch):
        from repro.parallel.pool import available_cpus

        monkeypatch.setattr(plan_mod, "_OVERSUB_WARNED", False)
        over = available_cpus() + 2
        with pytest.warns(UserWarning, match="exceeds available cpus"):
            ExecSpec(processes=over).validate()
        with warnings_none():
            ExecSpec(processes=over).validate()

    def test_within_budget_never_warns(self, monkeypatch):
        monkeypatch.setattr(plan_mod, "_OVERSUB_WARNED", False)
        with warnings_none():
            ExecSpec(processes=1).validate()
            ExecSpec(processes=None).validate()


class warnings_none:
    """Context asserting no warnings were raised inside it."""

    def __enter__(self):
        import warnings as _w

        self._catcher = _w.catch_warnings(record=True)
        self._log = self._catcher.__enter__()
        _w.simplefilter("always")
        return self

    def __exit__(self, *exc):
        self._catcher.__exit__(*exc)
        if exc[0] is None:
            assert not self._log, f"unexpected warnings: {[str(w.message) for w in self._log]}"
