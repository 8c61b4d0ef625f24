"""Tests for repro.serve.loadgen — trace replay, report, and CI gates."""

import asyncio
import json

import numpy as np
import pytest

from repro.dynamic import HotspotArrivals
from repro.faults import FaultSchedule, FaultSpec
from repro.graphs import trust_subsets
from repro.serve import SaerService, ServeConfig, ServingState, serve_tcp
from repro.serve.loadgen import (
    RetryPolicy,
    build_report,
    check_report,
    main as loadgen_main,
    make_arrivals,
    run_inprocess,
    run_tcp,
    sample_trace,
)


@pytest.fixture()
def graph():
    return trust_subsets(128, 128, 12, seed=4)


def _service(graph, **cfg):
    state = ServingState(graph, 2.0, 4, recovery=8, seed=9, track_tags=True)
    cfg.setdefault("max_batch", 1 << 30)
    return SaerService(state, ServeConfig(**cfg))


class TestTraceSampling:
    def test_make_arrivals_vocabulary(self):
        assert make_arrivals("poisson", 0.5).rate_per_client == 0.5
        assert make_arrivals("burst", 0.5, batch_size=10, period=2).batch_size == 10
        hot = make_arrivals("hotspot", 0.5, hot_fraction=0.05, hot_weight=0.8)
        assert isinstance(hot, HotspotArrivals)
        with pytest.raises(ValueError):
            make_arrivals("nope", 0.5)

    def test_trace_is_deterministic(self):
        arr = make_arrivals("poisson", 0.4)
        a = sample_trace(arr, 50, 20, seed=3)
        b = sample_trace(arr, 50, 20, seed=3)
        assert len(a) == 20
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_hotspot_concentrates_mass(self):
        arr = make_arrivals("hotspot", 1.0, hot_fraction=0.01, hot_weight=0.9)
        trace = sample_trace(arr, 1000, 30, seed=5)
        total = sum(int(c.sum()) for c in trace)
        hot = sum(int(c[:10].sum()) for c in trace)  # ceil(0.01·1000) = 10 hot ids
        assert hot / total > 0.8  # ~90% of mass on 1% of clients


class TestInprocessRun:
    def test_every_ball_accounted(self, graph):
        svc = _service(graph)
        trace = sample_trace(make_arrivals("poisson", 0.3), graph.n_clients, 40, 1)
        run = run_inprocess(svc, trace)
        balls = sum(int(c.sum()) for c in trace)
        tally = run["tally"]
        assert run["submitted"] == balls
        assert sum(tally.values()) == balls
        assert tally["assigned"] == run["latencies"].size
        assert run["stats"]["assigned_total"] == tally["assigned"]

    def test_subcritical_assigns_everything(self, graph):
        svc = _service(graph)
        trace = sample_trace(make_arrivals("poisson", 0.2), graph.n_clients, 50, 2)
        run = run_inprocess(svc, trace)
        assert run["tally"]["assigned"] == run["submitted"]
        assert run["tally"]["unresolved"] == 0

    def test_timeout_policy_produces_retries(self, graph):
        svc = _service(graph, max_wait_rounds=8)
        trace = sample_trace(make_arrivals("hotspot", 0.8), graph.n_clients, 60, 3)
        run = run_inprocess(svc, trace)
        assert run["tally"]["retry"] > 0
        assert run["retry_reasons"].get("timeout", 0) == run["tally"]["retry"]


class TestRetryPolicy:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"base_delay": 0.0},
            {"base_delay": 4.0, "max_delay": 2.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_delay_bounds(self):
        policy = RetryPolicy(max_attempts=6, base_delay=1.0, max_delay=16.0, seed=7)
        rng = policy.make_rng()
        for attempt in range(12):
            delay = policy.delay_rounds(attempt, rng)
            # At least one round; never above the cap's ceiling.
            assert 1 <= delay <= 16

    def test_delays_deterministic_per_seed(self):
        policy = RetryPolicy(seed=5)
        a = [policy.delay_rounds(t, policy.make_rng()) for t in range(8)]
        b = [policy.delay_rounds(t, policy.make_rng()) for t in range(8)]
        assert a == b

    def test_backoff_ceiling_grows_exponentially(self):
        policy = RetryPolicy(base_delay=1.0, max_delay=1024.0, seed=0)
        rng = policy.make_rng()
        # Full jitter: uniform(0, base·2^attempt) — the attempt-k draw
        # can never exceed 2^k (rounded up).
        for attempt in range(8):
            assert policy.delay_rounds(attempt, rng) <= 2**attempt

    def _faulted_service(self, graph, **cfg):
        # A transient crash window: timeouts during it are terminal for
        # the plain client but recoverable for the retrying one.
        sch = FaultSchedule((FaultSpec("crash", 0.6, start=2, end=20),), seed=4)
        state = ServingState(
            graph, 2.0, 4, recovery=8, seed=9, track_tags=True, faults=sch
        )
        cfg.setdefault("max_batch", 1 << 30)
        return SaerService(state, ServeConfig(**cfg))

    def test_retry_recovers_crash_window_timeouts(self, graph):
        trace = sample_trace(make_arrivals("poisson", 0.3), graph.n_clients, 40, 3)
        plain = run_inprocess(self._faulted_service(graph, max_wait_rounds=4), trace)
        retried = run_inprocess(
            self._faulted_service(graph, max_wait_rounds=4),
            trace,
            retry=RetryPolicy(max_attempts=8, base_delay=1.0, max_delay=8.0, seed=1),
        )
        assert plain["tally"]["retry"] > 0  # the window really bit
        assert retried["resubmitted"] > 0
        assert retried["tally"]["assigned"] > plain["tally"]["assigned"]
        # Terminal-retry accounting: with a policy, ``retry`` counts only
        # balls that ran out of attempts (= lost).
        assert retried["tally"]["retry"] == retried["lost"]
        assert retried["latencies_with_retries"].size == retried["tally"]["assigned"]
        # End-to-end latency includes backoff, so it dominates per-ball
        # assignment latency.
        assert (
            retried["latencies_with_retries"].mean() >= retried["latencies"].mean()
        )

    def test_retry_noop_when_nothing_retries(self, graph):
        trace = sample_trace(make_arrivals("poisson", 0.2), graph.n_clients, 30, 2)
        plain = run_inprocess(_service(graph), trace)
        retried = run_inprocess(
            _service(graph), trace, retry=RetryPolicy(max_attempts=4)
        )
        assert retried["resubmitted"] == 0 and retried["lost"] == 0
        assert retried["tally"] == plain["tally"]
        # Same multiset of latencies; the retry path records them in
        # resolution order rather than submission order.
        assert np.array_equal(
            np.sort(retried["latencies"]), np.sort(plain["latencies"])
        )


class TestReport:
    def _report(self, graph, **gate):
        svc = _service(graph)
        trace = sample_trace(make_arrivals("poisson", 0.2), graph.n_clients, 30, 1)
        run = run_inprocess(svc, trace)
        meta = {"kind": "poisson", "rounds": 30, "balls": run["submitted"]}
        return build_report("inprocess", {"n": graph.n_clients}, meta, run)

    def test_report_shape(self, graph):
        rep = self._report(graph)
        assert rep["bench"] == "serve"
        assert rep["assignment_rate"] == 1.0
        assert rep["throughput"]["assigned_per_s"] > 0
        assert {"mean", "p50", "p95", "p99"} <= set(rep["latency_rounds"])
        json.dumps(rep)  # must be JSON-serializable as-is

    def test_gates(self, graph):
        rep = self._report(graph)
        assert check_report(rep, 0.99, 50.0) == []
        fails = check_report(rep, 1.1, None)
        assert len(fails) == 1 and "assignment_rate" in fails[0]
        fails = check_report(rep, None, 0.0)
        assert len(fails) == 1 and "p95" in fails[0]
        fails = check_report(rep, None, None, min_throughput=1e12)
        assert len(fails) == 1 and "assigned_per_s" in fails[0]

    def test_retry_gates(self, graph):
        # A no-retry run trivially satisfies every retry gate...
        rep = self._report(graph)
        assert check_report(
            rep, None, None, max_retry_rate=0.0, max_lost=0
        ) == []
        # ...and a run with retries trips each gate independently.
        svc = _service(graph, max_wait_rounds=8)
        trace = sample_trace(make_arrivals("hotspot", 0.8), graph.n_clients, 60, 3)
        run = run_inprocess(
            svc, trace, retry=RetryPolicy(max_attempts=2, base_delay=1.0, seed=1)
        )
        rep = build_report("inprocess", {}, {}, run)
        assert run["resubmitted"] > 0 and run["lost"] > 0
        fails = check_report(rep, None, None, max_retry_rate=0.0)
        assert len(fails) == 1 and "retry_rate" in fails[0]
        fails = check_report(rep, None, None, max_lost=0)
        assert len(fails) == 1 and "lost" in fails[0]
        fails = check_report(rep, None, None, max_p99_retries=0.0)
        assert len(fails) == 1 and "latency-with-retries" in fails[0]


class TestCliEntry:
    def test_writes_report_and_passes_gates(self, tmp_path):
        out = tmp_path / "bench.json"
        rc = loadgen_main([
            "--n", "300", "--rounds", "30", "--rate", "0.3",
            "--seed", "5", "--out", str(out),
            "--min-assign-rate", "0.99", "--quiet",
        ])
        assert rc == 0
        rep = json.loads(out.read_text())
        assert rep["gates"]["passed"]
        assert rep["totals"]["submitted"] == rep["trace"]["balls"]

    def test_failing_gate_sets_exit_code(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        rc = loadgen_main([
            "--n", "300", "--rounds", "10", "--rate", "0.3",
            "--out", str(out), "--min-throughput", "1e15", "--quiet",
        ])
        assert rc == 1
        assert "GATE FAILED" in capsys.readouterr().out
        assert not json.loads(out.read_text())["gates"]["passed"]


class TestTcpMode:
    def test_tcp_replay_round_trip(self, graph):
        async def go():
            svc = _service(graph, max_batch=4096, tick=0.005)
            server = await serve_tcp(svc, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            trace = sample_trace(
                make_arrivals("poisson", 0.2), graph.n_clients, 15, 6
            )
            run = await run_tcp("127.0.0.1", port, trace, tick=0.005, settle_s=10.0)
            server.close()
            await server.wait_closed()
            await svc.shutdown()
            return run, sum(int(c.sum()) for c in trace)

        run, balls = asyncio.run(go())
        assert run["submitted"] == balls
        assert run["tally"]["assigned"] == balls
        assert run["tally"]["unresolved"] == 0
        assert run["latencies"].size == balls
        # The wire client sees no service stats; the report still builds.
        rep = build_report("tcp", {}, {}, run)
        assert rep["conservation"]["conserved"]
        assert rep["conservation"]["service_assigned_total"] is None

    def test_tcp_retry_resubmits_over_the_wire(self, graph):
        async def go():
            # A transient crash window: the service answers
            # Retry(timeout) while it lasts, the client backs off and
            # resubmits with fresh request ids, and once the window
            # closes the resubmissions land.
            sch = FaultSchedule(
                (FaultSpec("crash", 0.5, start=5, end=25),), seed=4
            )
            state = ServingState(
                graph, 2.0, 4, recovery=8, seed=9, track_tags=True, faults=sch
            )
            svc = SaerService(
                state,
                ServeConfig(max_batch=4096, tick=0.005, max_wait_rounds=4),
            )
            server = await serve_tcp(svc, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            trace = sample_trace(
                make_arrivals("poisson", 0.3), graph.n_clients, 20, 6
            )
            run = await run_tcp(
                "127.0.0.1", port, trace, tick=0.005, settle_s=15.0,
                retry=RetryPolicy(max_attempts=8, base_delay=1.0, seed=3),
            )
            server.close()
            await server.wait_closed()
            await svc.shutdown()
            return run, sum(int(c.sum()) for c in trace)

        run, balls = asyncio.run(go())
        assert run["submitted"] == balls
        assert run["resubmitted"] > 0
        tally = run["tally"]
        # Every logical ball reached a terminal outcome.
        assert tally["assigned"] + tally["retry"] + tally["dropped"] == balls
        assert tally["assigned"] / balls > 0.9
