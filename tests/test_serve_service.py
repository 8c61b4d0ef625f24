"""Tests for repro.serve.service + protocol: micro-batching, failure
paths (isolated clients, stalls, disconnects), and the NDJSON wire."""

import asyncio
import json

import numpy as np
import pytest

from repro.graphs import BipartiteGraph, trust_subsets
from repro.serve import (
    Assigned,
    AssignRequest,
    BallFuture,
    Dropped,
    ProtocolError,
    Retry,
    SaerService,
    ServeConfig,
    ServingState,
    decode_request,
    decode_response,
    encode_outcome,
    encode_response,
    serve_tcp,
)
from repro.faults import FaultSchedule, FaultSpec
from repro.serve.protocol import (
    ASSIGNED,
    OUTCOMES,
    REASON_BACKPRESSURE,
    REASON_BROWNOUT,
    REASON_ISOLATED,
    REASON_SHUTDOWN,
    REASON_TIMEOUT,
    REASONS,
    RETRY,
)
from repro.serve.service import TagTable


@pytest.fixture()
def graph():
    return trust_subsets(64, 64, 8, seed=11)


def _service(graph, **cfg):
    state = ServingState(graph, 2.0, 4, recovery=8, seed=33, track_tags=True)
    return SaerService(state, ServeConfig(**cfg)) if cfg else SaerService(state)


def _isolated_service():
    """Client 3 has no servers; balls submitted there can never serve."""
    edges = [(c, s) for c in range(3) for s in range(4)]
    g = BipartiteGraph.from_edges(4, 4, edges)
    state = ServingState(g, 2.0, 4, seed=1, track_tags=True)
    return SaerService(state)


def _stalled_service(graph, **cfg):
    """Every server burned, recovery disabled: no ball ever assigns."""
    state = ServingState(graph, 2.0, 4, recovery=None, seed=2, track_tags=True)
    state.cum_received[:] = state.capacity + 1
    state.burned[:] = True
    return SaerService(state, ServeConfig(**cfg)) if cfg else SaerService(state)


class TestProtocolCodec:
    def test_assign_round_trip(self):
        msg = decode_request('{"op":"assign","client":7,"balls":2,"id":"r1"}')
        assert msg["op"] == "assign"
        req = msg["request"]
        assert req == AssignRequest(client=7, balls=2, id="r1")

    def test_control_ops(self):
        for op in ("metrics", "stats", "ping"):
            assert decode_request(json.dumps({"op": op, "id": 1})) == {"op": op, "id": 1}

    @pytest.mark.parametrize(
        "line",
        [
            "not json",
            "[1,2]",
            '{"op":"frobnicate"}',
            '{"op":"assign"}',
            '{"op":"assign","client":"x"}',
            '{"op":"assign","client":1,"balls":0}',
            '{"op":"assign","client":-1}',
        ],
    )
    def test_garbage_rejected(self, line):
        with pytest.raises(ProtocolError):
            decode_request(line)

    def test_outcome_wire_round_trip(self):
        for outcome in (Assigned(3, 2), Retry(REASON_TIMEOUT), Dropped(REASON_ISOLATED)):
            line = encode_response({"id": "x", "ball": 0, **encode_outcome(outcome)})
            assert line.endswith(b"\n")
            back = decode_response(line)
            assert back["outcome_obj"] == outcome


class TestBallFuture:
    def test_set_once(self):
        f = BallFuture()
        assert not f.done()
        with pytest.raises(asyncio.InvalidStateError):
            f.result()
        f.set_result(Assigned(1, 0))
        assert f.done() and f.result() == Assigned(1, 0)
        with pytest.raises(asyncio.InvalidStateError):
            f.set_result(Assigned(2, 0))

    def test_callback_orders(self):
        seen = []
        f = BallFuture()
        f.add_done_callback(lambda fut: seen.append("before"))
        f.set_result(Retry("x"))
        f.add_done_callback(lambda fut: seen.append("after"))  # fires immediately
        assert seen == ["before", "after"]

    def test_wait_bridges_to_asyncio(self, graph):
        svc = _service(graph)

        async def go():
            fut = svc.submit(0)[0]
            svc.run_round()
            return await fut.wait()

        out = asyncio.run(go())
        assert isinstance(out, Assigned)


class TestServiceRounds:
    def test_submit_and_assign(self, graph):
        svc = _service(graph)
        futs = svc.submit(5, balls=3)
        assert len(futs) == 3 and svc.pending == 3
        assigned = svc.run_round()
        assert assigned == 3
        for f in futs:
            out = f.result()
            assert isinstance(out, Assigned)
            assert out.latency_rounds == 0
            assert 0 <= out.server < graph.n_servers
        assert svc.in_flight == 0

    def test_submit_validation(self, graph):
        svc = _service(graph)
        with pytest.raises(ValueError):
            svc.submit(-1)
        with pytest.raises(ValueError):
            svc.submit(graph.n_clients)
        with pytest.raises(ValueError):
            svc.submit(0, balls=0)

    def test_isolated_client_dropped_matches_state_accounting(self):
        """The serve failure path must use the simulator's accounting:
        unservable balls resolve as Dropped AND count in state.dropped."""
        svc = _isolated_service()
        ok = svc.submit(0)[0]
        doomed = svc.submit(3, balls=2)
        svc.run_round()
        assert isinstance(ok.result(), Assigned)
        for f in doomed:
            assert f.result() == Dropped(REASON_ISOLATED)
        assert svc.state.dropped == 2
        assert svc.metrics.get("serve_dropped_total").value == 2

    def test_backpressure_immediate_retry(self, graph):
        svc = _service(graph, max_pending=2)
        futs = svc.submit(0, balls=5)
        resolved = [f for f in futs if f.done()]
        assert len(resolved) == 3  # room for 2, the rest bounce
        assert all(f.result() == Retry(REASON_BACKPRESSURE) for f in resolved)
        assert svc.pending == 2

    def test_stall_without_recovery_leaves_futures_pending(self, graph):
        svc = _stalled_service(graph)
        futs = svc.submit(1, balls=4)
        for _ in range(20):
            svc.run_round()
        assert all(not f.done() for f in futs)  # no timeout policy: they wait
        assert svc.state.backlog == 4
        assert svc.state.burned_fraction == 1.0

    def test_stall_with_timeout_policy_sheds_as_retry(self, graph):
        svc = _stalled_service(graph, max_wait_rounds=5)
        futs = svc.submit(1, balls=4)
        for _ in range(6):
            svc.run_round()
        assert all(f.result() == Retry(REASON_TIMEOUT) for f in futs)
        assert svc.state.backlog == 0
        assert svc.metrics.get("serve_retried_total").value == 4

    def test_latency_counts_rounds_waited(self, graph):
        svc = _stalled_service(graph)
        fut = svc.submit(2)[0]
        svc.run_round()
        svc.run_round()
        # heal the servers; the third round assigns at latency 2
        svc.state.cum_received[:] = 0
        svc.state.burned[:] = False
        svc.run_round()
        assert fut.result().latency_rounds == 2

    def test_shutdown_resolves_leftovers(self, graph):
        svc = _stalled_service(graph)
        futs = svc.submit(0, balls=3)

        async def go():
            await svc.start()
            await svc.shutdown()

        asyncio.run(go())
        assert all(f.result() == Retry(REASON_SHUTDOWN) for f in futs)
        # submissions after shutdown bounce immediately
        late = svc.submit(0)[0]
        assert late.result() == Retry(REASON_SHUTDOWN)

    def test_metrics_populated(self, graph):
        svc = _service(graph)
        svc.submit(0, balls=2)
        svc.run_round()
        m = svc.metrics
        assert m.get("serve_requests_total").value == 1
        assert m.get("serve_balls_total").value == 2
        assert m.get("serve_assigned_total").value == 2
        assert m.get("serve_rounds_total").value == 1
        assert m.get("serve_assign_latency_rounds").total == 2
        assert m.get("serve_round_seconds").total == 1

    def test_snapshot_hook_cadence(self, graph):
        svc = _service(graph, snapshot_every=2)
        snaps = []
        svc.metrics.add_snapshot_hook(snaps.append)
        for _ in range(5):
            svc.run_round()
        assert len(snaps) == 2  # rounds 2 and 4

    def test_stats_shape(self, graph, monkeypatch):
        # Pin the gate: the suite may run under an exported REPRO_KERNELS.
        monkeypatch.setenv("REPRO_KERNELS", "numpy")
        svc = _service(graph)
        svc.submit(1)
        svc.run_round()
        s = svc.stats()
        assert s["round"] == 1
        assert s["assigned_total"] == 1
        assert s["kernel"] == "numpy"
        assert "serve_backlog" in s["metrics"]

    def test_requires_tag_tracking(self, graph):
        state = ServingState(graph, 2.0, 4, seed=0)  # track_tags off
        with pytest.raises(ValueError):
            SaerService(state)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServeConfig(tick=0)
        with pytest.raises(ValueError):
            ServeConfig(max_batch=0)
        with pytest.raises(ValueError):
            ServeConfig(max_pending=0)
        with pytest.raises(ValueError):
            ServeConfig(max_wait_rounds=0)

def _rows(svc):
    """The last published outcome record as a list of (tag, outcome,
    server, latency, reason) tuples."""
    rec = svc.outcomes
    return list(zip(*(col.tolist() for col in rec.columns())))


def _browning_out(graph, **cfg):
    """A stalled service whose first round switches brownout on."""
    svc = _stalled_service(graph, brownout_threshold=0.5, brownout_shed=0.35, **cfg)
    svc.run_round()
    assert svc.stats()["brownout"]
    return svc


class TestColumnarIngest:
    REQUESTS = (
        [5, 9, 5, 2, 60, 17, 17, 3, 0, 44, 1, 8],
        [3, 1, 7, 2, 1, 4, 1, 9, 2, 5, 1, 6],
    )

    @pytest.mark.parametrize("max_pending", [None, 12, 20])
    def test_submit_many_is_the_submit_loop(self, graph, max_pending):
        """Same tags, counters, brownout accumulator and backpressure
        room; the futures of the loop resolve to the record's rows."""
        looped = _browning_out(graph, max_pending=max_pending)
        batched = _browning_out(graph, max_pending=max_pending)
        clients, balls = self.REQUESTS
        futures = []
        for c, k in zip(clients, balls):
            futures.extend(looped.submit(c, k))
        first = batched.submit_many(np.array(clients), np.array(balls))
        assert first == 0 and len(futures) == sum(balls)
        for svc in (looped, batched):
            assert svc.pending == looped.pending
            assert svc.in_flight == looped.in_flight
        assert batched._shed_acc == looped._shed_acc
        counted = [looped.metrics.snapshot(), batched.metrics.snapshot()]
        for snap in counted:
            del snap["serve_round_seconds"]  # wall time
        assert counted[1] == counted[0]
        for svc in (looped, batched):
            svc.state.cum_received[:] = 0  # heal, so the queued balls assign
            svc.state.burned[:] = False
            svc.run_round()
        assert _rows(batched) == _rows(looped)
        reasons = {REASONS[r] for *_, r in _rows(batched)} - {""}
        assert REASON_BROWNOUT in reasons
        assert (REASON_BACKPRESSURE in reasons) == (max_pending is not None)
        rec = looped.outcomes
        by_tag = dict(zip(rec.tags.tolist(), rec.objects()))
        assert [f.result() for f in futures] == [by_tag[t] for t in range(len(futures))]
        assert looped.in_flight == batched.in_flight == 0

    def test_record_order(self):
        """Rejections at submission, isolated drops, assignments in
        ball-buffer order, then timeouts in eviction order."""
        edges = [(c, s) for c in range(3) for s in range(4)]  # client 3 isolated
        g = BipartiteGraph.from_edges(4, 4, edges)
        state = ServingState(g, 2.0, 4, recovery=None, seed=1, track_tags=True)
        svc = SaerService(state, ServeConfig(max_pending=6, max_wait_rounds=1))
        # Tags 0-1 queue; 2 queues at the isolated client; 3-5 fill the
        # room and 6-7 bounce.
        svc.submit_many([0, 3, 1], [2, 1, 5])
        state.cum_received[:2] = state.capacity + 1  # servers 0-1 reject
        state.burned[:2] = True
        svc.run_round()
        rows = [(t, OUTCOMES[o], REASONS[r]) for t, o, _, _, r in _rows(svc)]
        assert rows[:3] == [
            (6, "retry", REASON_BACKPRESSURE),
            (7, "retry", REASON_BACKPRESSURE),
            (2, "dropped", REASON_ISOLATED),
        ]
        assigned = [t for t, kind, _ in rows if kind == "assigned"]
        timed_out = [t for t, _, reason in rows if reason == REASON_TIMEOUT]
        assert rows[3:] == [(t, "assigned", "") for t in assigned] + [
            (t, "retry", REASON_TIMEOUT) for t in timed_out
        ]
        assert assigned and timed_out
        assert assigned == sorted(assigned) and timed_out == sorted(timed_out)
        assert sorted(assigned + timed_out) == [0, 1, 3, 4, 5]
        assert svc.in_flight == 0

    def test_invalid_request_queues_nothing(self, graph):
        svc = _service(graph)
        for clients, balls in (([1, graph.n_clients], [1, 1]), ([1, 2], [1, 0]), ([1], [1, 2])):
            with pytest.raises(ValueError):
                svc.submit_many(clients, balls)
        assert svc.pending == 0 and svc.in_flight == 0
        assert svc.submit_many([3], [2]) == 0  # no tag was spent

    def test_duplicates_never_count_as_callers(self, graph):
        """Byzantine duplicate balls (tag -1) load the servers but are
        never in flight for a caller and never in the record."""
        faults = FaultSchedule((FaultSpec("byz_client_dup", 0.5, start=0),), seed=3)
        state = ServingState(
            graph, 2.0, 4, recovery=None, seed=4, track_tags=True, faults=faults
        )
        svc = SaerService(state, ServeConfig(max_wait_rounds=3))
        clients = np.arange(graph.n_clients)
        svc.submit_many(clients, np.full(clients.size, 2))
        submitted = 2 * clients.size
        resolved = assigned = 0
        for _ in range(4):
            svc.run_round()
            rec = svc.outcomes
            assert (rec.tags >= 0).all()
            resolved += len(rec)
            assigned += int(np.count_nonzero(rec.outcome == ASSIGNED))
            assert svc.in_flight == submitted - resolved
        assert resolved == submitted and svc.in_flight == 0
        assert state.assigned_total > assigned  # duplicates were served too
        assert asyncio.run(svc.drain()) == 0

    def test_shutdown_publishes_leftovers_once(self, graph):
        svc = _stalled_service(graph)
        svc.submit_many([1, 2], [2, 1])
        svc.run_round()
        svc.submit_many([4], [2])  # queued, not yet admitted
        asyncio.run(svc.shutdown())
        assert _rows(svc) == [
            (t, RETRY, -1, -1, REASONS.index(REASON_SHUTDOWN)) for t in range(5)
        ]
        assert svc.in_flight == 0 and svc.pending == 0
        svc.state.cum_received[:] = 0
        svc.state.burned[:] = False
        svc.run_round()  # the abandoned balls assign, but nobody hears of it
        assert svc.state.assigned_total == 3 and len(svc.outcomes) == 0
        assert svc.submit_many([0], [1]) == 5
        svc.run_round()
        assert _rows(svc) == [(5, RETRY, -1, -1, REASONS.index(REASON_SHUTDOWN))]


class TestTagTable:
    def test_take_forgets_and_trims(self):
        table = TagTable(2)
        table.add(10, np.array([[1, 2], [3, 4], [5, 6]]))
        table.add(13, np.array([[7, 8]]))
        rows, known = table.take(np.array([11, 99, 10]))
        assert rows.tolist() == [[3, 4], [1, 2]] and known.tolist() == [True, False, True]
        assert table.base == 12  # 10 and 11 are gone
        rows, known = table.take(np.array([11, 13, 12]))
        assert rows.tolist() == [[7, 8], [5, 6]] and known.tolist() == [False, True, True]
        table.add(40, np.array([[0, 0]]))  # an empty table restarts anywhere
        assert table.base == 40
        with pytest.raises(ValueError):
            table.add(42, np.array([[0, 0]]))

    def test_long_run_keeps_only_the_open_span(self):
        table = TagTable(1)
        for k in range(200):
            tag = 50 * k
            table.add(tag, np.arange(tag, tag + 50)[:, None])
            # This batch's first 40 resolve now, the last 10 next time.
            resolved = np.arange(tag - 10, tag + 40)[max(0, 10 - tag):]
            rows, known = table.take(resolved)
            assert known.all() and rows[:, 0].tolist() == resolved.tolist()
        assert table.base == 50 * 199 + 40
        assert len(table._done) == 1024  # never grew


class TestMicroBatching:
    def test_ticker_fires_rounds(self, graph):
        async def go():
            svc = _service(graph, tick=0.01)
            await svc.start()
            fut = svc.submit(4)[0]
            out = await asyncio.wait_for(fut.wait(), timeout=2.0)
            await svc.shutdown()
            return out

        assert isinstance(asyncio.run(go()), Assigned)

    def test_full_batch_kicks_before_tick(self, graph):
        async def go():
            # A tick this long would time the test out — only the
            # max_batch kick can complete the futures in time.
            svc = _service(graph, tick=30.0, max_batch=4)
            await svc.start()
            futs = svc.submit(0, balls=4)
            out = await asyncio.wait_for(futs[-1].wait(), timeout=2.0)
            await svc.shutdown()
            return out

        assert isinstance(asyncio.run(go()), Assigned)

    def test_full_batch_queued_before_start_kicks(self, graph):
        async def go():
            svc = _service(graph, tick=30.0, max_batch=4)
            futs = svc.submit(0, balls=4)
            await svc.start()
            out = await asyncio.wait_for(futs[-1].wait(), timeout=2.0)
            await svc.shutdown()
            return out

        assert isinstance(asyncio.run(go()), Assigned)

    def test_drain_empties_backlog(self, graph):
        async def go():
            svc = _service(graph)
            for client in range(10):
                svc.submit(client, balls=5)
            rounds = await svc.drain()
            return svc.in_flight, rounds

        in_flight, rounds = asyncio.run(go())
        assert in_flight == 0
        assert rounds >= 1


class TestTcpFrontEnd:
    def _boot(self, svc):
        return serve_tcp(svc, "127.0.0.1", 0)

    def test_assign_over_wire(self, graph):
        async def go():
            svc = _service(graph, tick=0.01)
            server = await self._boot(svc)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(encode_response({"op": "assign", "client": 3, "balls": 2, "id": "r1"}))
            await writer.drain()
            outs = [decode_response(await reader.readline()) for _ in range(2)]
            writer.close()
            await writer.wait_closed()
            server.close()
            await server.wait_closed()
            await svc.shutdown()
            return outs

        outs = asyncio.run(go())
        assert {o["ball"] for o in outs} == {0, 1}
        for o in outs:
            assert o["id"] == "r1"
            assert isinstance(o["outcome_obj"], Assigned)

    def test_control_ops_and_garbage(self, graph):
        async def go():
            svc = _service(graph, tick=0.01)
            server = await self._boot(svc)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            for payload in (
                {"op": "ping", "id": "p"},
                {"op": "stats", "id": "s"},
                {"op": "metrics", "id": "m"},
            ):
                writer.write(encode_response(payload))
            writer.write(b"this is not json\n")
            await writer.drain()
            lines = [json.loads(await reader.readline()) for _ in range(4)]
            writer.close()
            await writer.wait_closed()
            server.close()
            await server.wait_closed()
            await svc.shutdown()
            return lines

        pong, stats, metrics, err = asyncio.run(go())
        assert pong == {"id": "p", "pong": True}
        assert stats["stats"]["n_clients"] == 64
        assert "serve_rounds_total" in metrics["metrics"]
        assert "invalid JSON" in err["error"]

    def test_client_disconnect_mid_flight(self, graph):
        """A client that vanishes before its round fires must not take
        the service down; its outcome is simply discarded."""

        async def go():
            # Huge tick: the round will NOT fire while the client is
            # connected — the disconnect happens strictly mid-flight.
            svc = _service(graph, tick=30.0)
            server = await self._boot(svc)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(encode_response({"op": "assign", "client": 1, "id": "gone"}))
            await writer.drain()
            writer.close()
            await writer.wait_closed()
            await asyncio.sleep(0.05)  # let the server observe the EOF
            # The ball is still queued; firing the round now resolves a
            # future whose connection is gone — must not raise.
            assigned = svc.run_round()
            # The service stays healthy for the next client.
            reader2, writer2 = await asyncio.open_connection("127.0.0.1", port)
            writer2.write(encode_response({"op": "ping", "id": "p2"}))
            await writer2.drain()
            pong = json.loads(await reader2.readline())
            writer2.close()
            await writer2.wait_closed()
            server.close()
            await server.wait_closed()
            await svc.shutdown()
            return assigned, pong

        assigned, pong = asyncio.run(go())
        assert assigned == 1
        assert pong == {"id": "p2", "pong": True}
