"""Chaos tests: checkpoint/restore, kill-and-resume, and self-healing.

The contracts under test:

* :meth:`ServingState.checkpoint` / :meth:`SaerService.checkpoint` are
  *complete*: a restored system continues with accounting bit-identical
  to one that was never interrupted — including mid-flight balls, fault
  schedules, quarantine, and the protocol RNG stream.
* The self-healing path (retry backoff + health quarantine + brownout
  shedding) recovers ≥95% assignment when 10% of servers crash
  mid-replay over real TCP.
* Quarantine never strands a routable ball (hypothesis property pinned
  against :meth:`ServingState._refilter`'s guard).
"""

import asyncio
import json
import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import CheckpointError
from repro.faults import FaultSchedule, FaultSpec, HealthPolicy
from repro.graphs import trust_subsets
from repro.serve import SaerService, ServeConfig, ServingState, serve_tcp
from repro.serve.loadgen import (
    RetryPolicy,
    build_report,
    check_report,
    make_arrivals,
    run_chaos,
    sample_trace,
)
from repro.serve.protocol import REASON_BROWNOUT, Retry


@pytest.fixture()
def graph():
    return trust_subsets(128, 128, 12, seed=4)


def _state(graph, **kw):
    kw.setdefault("recovery", 8)
    kw.setdefault("seed", 9)
    kw.setdefault("track_tags", True)
    return ServingState(graph, 2.0, 4, **kw)


def _drive(svc, trace):
    """Driven-mode replay: submit each round's counts, then run the round."""
    for counts in trace:
        for client in np.nonzero(counts)[0].tolist():
            svc.submit(int(client), int(counts[client]))
        svc.run_round()


def _drain(svc, limit=500):
    rounds = 0
    while svc.in_flight and rounds < limit:
        svc.run_round()
        rounds += 1
    return rounds


def _accounting(svc):
    s = svc.state
    return {
        "round_no": s.round_no,
        "assigned_total": s.assigned_total,
        "dropped": s.dropped,
        "backlog": s.backlog,
        "byz_absorbed": s.byz_absorbed,
        "cum_received": s.cum_received.copy(),
        "burned": s.burned.copy(),
        "burn_clock": s.burn_clock.copy(),
    }


def _assert_same_accounting(a, b):
    for key in ("round_no", "assigned_total", "dropped", "backlog", "byz_absorbed"):
        assert a[key] == b[key], key
    for key in ("cum_received", "burned", "burn_clock"):
        assert np.array_equal(a[key], b[key]), key


class TestStateCheckpoint:
    def test_round_trip_bit_identical(self, graph, tmp_path):
        """Continue vs save/load/continue produce identical route outcomes."""
        sch = FaultSchedule(
            (FaultSpec("crash", 0.15, start=3), FaultSpec("byz_server", 0.1)),
            seed=7,
        )
        cont = _state(graph, faults=sch, track_tags=False)
        rng = np.random.default_rng(1)
        trace = [rng.poisson(0.3, graph.n_clients).astype(np.int64) for _ in range(20)]
        for counts in trace[:10]:
            cont.round_begin()
            cont.admit_counts(counts)
            cont.route()
        path = tmp_path / "state.ckpt"
        cont.save(path)
        rest = ServingState.load(path)
        for counts in trace[10:]:
            for state in (cont, rest):
                state.round_begin()
                state.admit_counts(counts)
            a, b = cont.route(), rest.route()
            assert a.assigned == b.assigned
            assert a.backlog == b.backlog
            assert np.array_equal(a.latencies, b.latencies)
            assert np.array_equal(a.assigned_servers, b.assigned_servers)
        assert cont.assigned_total == rest.assigned_total
        assert cont.byz_absorbed == rest.byz_absorbed
        assert np.array_equal(cont.cum_received, rest.cum_received)

    def test_checkpoint_is_picklable_with_quarantine(self, graph):
        state = _state(graph)
        state.set_quarantine([0, 1, 2])
        ckpt = pickle.loads(pickle.dumps(state.checkpoint()))
        rest = ServingState.from_checkpoint(ckpt)
        assert rest.quarantined_count == 3
        rest.readmit([0, 1, 2])
        assert rest.quarantined is None  # collapsed back to the fast path

    def test_rejects_garbage(self):
        with pytest.raises(CheckpointError):
            ServingState.from_checkpoint("junk")
        with pytest.raises(CheckpointError):
            ServingState.from_checkpoint({"not": "a checkpoint"})

    def test_rejects_version_skew(self, graph):
        ckpt = _state(graph).checkpoint()
        ckpt["version"] = 999
        with pytest.raises(CheckpointError):
            ServingState.from_checkpoint(ckpt)


class TestServiceCheckpoint:
    def test_killed_and_restored_matches_unkilled(self, graph):
        """The ISSUE's acceptance bar: a service checkpointed mid-flight
        and rebuilt finishes with accounting identical to one that was
        never interrupted."""
        config = ServeConfig(max_batch=1 << 30, max_wait_rounds=16)
        # A crash window forces an admitted-but-unassigned backlog, so
        # the checkpoint really carries mid-flight balls (both queued
        # and inside the state's ball table).
        sch = FaultSchedule((FaultSpec("crash", 0.4, start=4, end=12),), seed=5)
        control = SaerService(_state(graph, faults=sch), config)
        victim = SaerService(_state(graph, faults=sch), config)
        trace = sample_trace(make_arrivals("poisson", 0.6), graph.n_clients, 16, 6)

        _drive(control, trace)
        _drain(control)

        _drive(victim, trace[:8])
        for client in np.nonzero(trace[8])[0].tolist():
            victim.submit(int(client), int(trace[8][client]))
        assert victim.pending > 0  # queued balls at checkpoint time
        assert victim.state.n_alive > 0  # admitted backlog too
        ckpt = pickle.loads(pickle.dumps(victim.checkpoint()))
        restored = SaerService.from_checkpoint(ckpt, config)
        # Every admitted in-flight ball got a fresh future, so drain
        # accounting (timeout evictions included) matches the original.
        assert restored.in_flight == victim.in_flight
        restored.run_round()  # round 8's balls were already queued
        _drive(restored, trace[9:])
        _drain(restored)

        assert restored.in_flight == 0
        _assert_same_accounting(_accounting(control), _accounting(restored))

    def test_checkpoint_changes_nothing(self, graph):
        """Taking a checkpoint must not touch the live service: two in a
        row are equal and the next ball keeps the tag it would have had."""
        svc = SaerService(_state(graph), ServeConfig(max_batch=1 << 30, max_pending=8))
        svc.submit(0, 5)
        svc.run_round()
        svc.submit(1, 6)  # 3 queue, 3 bounce (rejections not yet published)
        first = svc.checkpoint()
        assert pickle.dumps(svc.checkpoint()) == pickle.dumps(first)
        assert first["next_tag"] == 11
        assert svc.submit_many([2], [1]) == 11

    def test_midway_checkpoint_keeps_outcome_sequence(self, graph):
        """A replay checkpointed midway — on the live service, and on a
        service restored from that checkpoint — publishes the same
        outcome records, tags included, as one never checkpointed."""
        config = ServeConfig(max_batch=1 << 30, max_pending=90, max_wait_rounds=3)
        sch = FaultSchedule((FaultSpec("crash", 0.4, start=3, end=9),), seed=5)
        trace = sample_trace(make_arrivals("poisson", 0.6), graph.n_clients, 16, 6)

        def replay(svc, rounds, checkpoint_at=None):
            records, ckpt = [], None
            for t, counts in enumerate(rounds):
                clients = np.flatnonzero(counts)
                svc.submit_many(clients, counts[clients])
                if t == checkpoint_at:
                    ckpt = pickle.loads(pickle.dumps(svc.checkpoint()))
                svc.run_round()
                records.append([col.tolist() for col in svc.outcomes.columns()])
            return records, ckpt

        control, _ = replay(SaerService(_state(graph, faults=sch), config), trace)
        probed, ckpt = replay(
            SaerService(_state(graph, faults=sch), config), trace, checkpoint_at=8
        )
        assert probed == control
        assert len(ckpt["pending_tags"]) and len(ckpt["rejected"][0])
        restored = SaerService.from_checkpoint(ckpt, config)
        tail = []
        for counts in trace[9:]:
            restored.run_round()
            tail.append([col.tolist() for col in restored.outcomes.columns()])
            clients = np.flatnonzero(counts)
            restored.submit_many(clients, counts[clients])
        restored.run_round()
        tail.append([col.tolist() for col in restored.outcomes.columns()])
        assert tail == control[8:]

    def test_restored_tags_never_collide(self, graph):
        svc = SaerService(_state(graph), ServeConfig(max_batch=1 << 30))
        svc.submit(0, 5)
        ckpt = svc.checkpoint()
        restored = SaerService.from_checkpoint(ckpt, svc.config)
        before = set(restored._futures)
        restored.submit(1, 3)
        new = set(restored._futures) - before
        assert len(new) == 3 and not (new & before)

    def test_rejects_garbage(self):
        with pytest.raises(CheckpointError):
            SaerService.from_checkpoint("junk")
        with pytest.raises(CheckpointError):
            SaerService.from_checkpoint({"not": "a checkpoint"})

    def test_health_state_survives_restore(self, graph):
        policy = HealthPolicy(fail_streak=2, quarantine_rounds=8)
        config = ServeConfig(max_batch=1 << 30, health=policy)
        svc = SaerService(_state(graph), config)
        svc.state.set_quarantine([3, 4])
        svc._health.observe(
            np.full(graph.n_servers, 4, np.int64),
            np.full(graph.n_servers, 4, np.int64),
        )
        restored = SaerService.from_checkpoint(svc.checkpoint(), config)
        assert restored.state.quarantined_count == 2
        assert restored._health is not None
        a, b = restored._health.state(), svc._health.state()
        assert set(a) == set(b)
        for key in a:
            assert np.array_equal(a[key], b[key]), key


class TestTcpKillRestore:
    def test_tcp_kill_restore_accounting_identical(self, graph):
        """Kill the TCP server mid-replay, restore the service from its
        checkpoint behind a fresh listener, finish the replay: final
        accounting is bit-identical to the never-killed control.

        Rounds are driven manually (the tick is parked at 60 s) so the
        wall clock cannot perturb round boundaries; a ``ping`` barrier
        after each round's submissions guarantees the server admitted
        them before the round fires.
        """
        config = ServeConfig(tick=60.0, max_batch=1 << 30, max_wait_rounds=16)
        trace = sample_trace(make_arrivals("poisson", 0.25), graph.n_clients, 12, 3)

        async def submit_rounds(svc, port, part):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            rid = [10_000_000]

            async def barrier():
                rid[0] += 1
                writer.write(
                    (json.dumps({"op": "ping", "id": rid[0]}) + "\n").encode()
                )
                await writer.drain()
                while True:
                    msg = json.loads(await reader.readline())
                    if msg.get("pong") and msg.get("id") == rid[0]:
                        return

            for counts in part:
                for client in np.nonzero(counts)[0].tolist():
                    rid[0] += 1
                    writer.write(
                        (
                            json.dumps(
                                {
                                    "op": "assign",
                                    "client": int(client),
                                    "balls": int(counts[client]),
                                    "id": rid[0],
                                }
                            )
                            + "\n"
                        ).encode()
                    )
                await barrier()
                svc.run_round()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

        async def go():
            control = SaerService(_state(graph), config)
            victim = SaerService(_state(graph), config)

            ctl_server = await serve_tcp(control, "127.0.0.1", 0)
            ctl_port = ctl_server.sockets[0].getsockname()[1]
            vic_server = await serve_tcp(victim, "127.0.0.1", 0)
            vic_port = vic_server.sockets[0].getsockname()[1]

            await submit_rounds(control, ctl_port, trace)
            await submit_rounds(victim, vic_port, trace[:6])

            # Kill: checkpoint first (shutdown clears the pending queue),
            # then tear the listener and the old service down.
            ckpt = pickle.loads(pickle.dumps(victim.checkpoint()))
            vic_server.close()
            await vic_server.wait_closed()
            await victim.shutdown()

            restored = SaerService.from_checkpoint(ckpt, config)
            new_server = await serve_tcp(restored, "127.0.0.1", 0)
            new_port = new_server.sockets[0].getsockname()[1]
            await submit_rounds(restored, new_port, trace[6:])

            _drain(control)
            _drain(restored)

            for server, svc in ((ctl_server, control), (new_server, restored)):
                server.close()
                await server.wait_closed()
                await svc.shutdown()
            return _accounting(control), _accounting(restored)

        control_acc, restored_acc = asyncio.run(go())
        _assert_same_accounting(control_acc, restored_acc)


class TestChaosRecovery:
    def test_crash_10pct_recovers_assign_rate(self, graph):
        """The ISSUE's chaos bar: 10% of servers crash mid-replay over
        real TCP; client backoff + server quarantine recover ≥0.95
        assignment."""
        sch = FaultSchedule((FaultSpec("crash", 0.1, start=8),), seed=3)
        state = _state(graph, faults=sch)
        config = ServeConfig(
            tick=0.01,
            max_batch=1 << 30,
            max_wait_rounds=8,
            health=HealthPolicy(fail_streak=3, quarantine_rounds=256),
        )
        svc = SaerService(state, config)
        trace = sample_trace(make_arrivals("poisson", 0.3), graph.n_clients, 30, 6)
        retry = RetryPolicy(max_attempts=5, base_delay=1.0, max_delay=8.0, seed=2)

        run = asyncio.run(run_chaos(svc, trace, tick=0.01, settle_s=30.0, retry=retry))

        submitted = run["submitted"]
        assert submitted == sum(int(c.sum()) for c in trace)
        assert run["tally"]["assigned"] / submitted >= 0.95
        # The health loop actually fired on the corpses.
        assert run["stats"]["metrics"]["serve_quarantine_events_total"] > 0

        report = build_report("chaos", {}, {}, run)
        assert check_report(report, min_assign_rate=0.95, max_p95=None) == []


class TestBrownout:
    def test_shed_fraction_is_deterministic(self, graph):
        svc = SaerService(
            _state(graph),
            ServeConfig(max_batch=1 << 30, brownout_threshold=0.5, brownout_shed=0.5),
        )
        svc._brownout_active = True
        futs = svc.submit(0, 10)
        shed = [f for f in futs if f.done() and isinstance(f.result(), Retry)]
        assert len(futs) == 10 and len(shed) == 5
        assert all(f.result().reason == REASON_BROWNOUT for f in shed)

    def test_shed_accumulator_carries_fractions(self, graph):
        svc = SaerService(
            _state(graph),
            ServeConfig(max_batch=1 << 30, brownout_threshold=0.5, brownout_shed=0.5),
        )
        svc._brownout_active = True
        shed = 0
        for _ in range(4):  # 0.5 per ball: Bresenham sheds exactly every 2nd
            fut = svc.submit(0, 1)[0]
            shed += fut.done() and isinstance(fut.result(), Retry)
        assert shed == 2

    def test_latch_follows_burned_fraction(self, graph):
        # No recovery + a huge burst burns the whole fleet, which must
        # latch brownout; the healthy control round must not.
        svc = SaerService(
            _state(graph, recovery=None),
            ServeConfig(
                max_batch=1 << 30, brownout_threshold=0.3, brownout_shed=1.0
            ),
        )
        assert not svc._brownout_active
        for client in range(graph.n_clients):
            svc.submit(client, 40)
        svc.run_round()
        assert svc.state.burned_fraction > 0.3
        assert svc._brownout_active
        fut = svc.submit(0, 1)[0]
        assert fut.done() and fut.result().reason == REASON_BROWNOUT
        assert svc.stats()["brownout"] is True


class TestQuarantine:
    def test_quarantine_and_readmit_cycle(self, graph):
        state = _state(graph)
        original = [nl.copy() for nl in state.neighbor_lists]
        assert state.set_quarantine([5, 6]) == 2
        assert state.set_quarantine([5]) == 0  # idempotent
        assert state.quarantined_count == 2
        for nl in state.neighbor_lists:
            assert 5 not in nl and 6 not in nl
        assert state.readmit([5]) == 1
        assert state.readmit([5]) == 0
        assert state.readmit([6]) == 1
        assert state.quarantined is None  # fast path restored
        for a, b in zip(state.neighbor_lists, original):
            assert np.array_equal(a, b)

    def test_quarantine_bounds_checked(self, graph):
        state = _state(graph)
        with pytest.raises(ValueError):
            state.set_quarantine([graph.n_servers])
        state.set_quarantine([0])
        with pytest.raises(ValueError):
            state.readmit([-1])

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_quarantine_never_strands_a_routable_ball(self, data):
        """Property: whatever gets quarantined (in any number of waves),
        every client that could route a ball before still can."""
        n_s = data.draw(st.integers(min_value=2, max_value=16), label="n_servers")
        n_c = data.draw(st.integers(min_value=1, max_value=16), label="n_clients")
        k = data.draw(st.integers(min_value=1, max_value=n_s), label="degree")
        seed = data.draw(st.integers(min_value=0, max_value=2**16), label="seed")
        graph = trust_subsets(n_c, n_s, k, seed=seed)
        state = ServingState(graph, 2.0, 4, seed=0, track_tags=True)
        routable = np.flatnonzero(state.degs > 0)
        waves = data.draw(
            st.lists(
                st.lists(
                    st.integers(min_value=0, max_value=n_s - 1),
                    min_size=1,
                    max_size=n_s,
                ),
                min_size=1,
                max_size=4,
            ),
            label="waves",
        )
        for wave in waves:
            if data.draw(st.booleans(), label="readmit_some"):
                state.readmit(np.asarray(wave[:1], dtype=np.int64))
            state.set_quarantine(np.asarray(wave, dtype=np.int64))
            assert np.all(state.degs[routable] > 0)
