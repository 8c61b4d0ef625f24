"""Tests for repro.faults — specs, schedules, overlays, and health.

The determinism contract under test: all fault randomness comes from
the schedule's own seed, so (a) ``f=0`` is bit-identical to no faults
in every execution layer, (b) a seeded schedule reproduces exactly
across kernel gates and thread counts, and (c) the overlays preserve
every layer's conservation laws (balls are assigned, absorbed, or still
in flight — never silently vanish).
"""

import pickle

import numpy as np
import pytest

from repro.batch import available_kernels, run_saer_batched, run_trials_batched
from repro.batch.kernels import EngineBuffers
from repro.core.config import ProtocolParams
from repro.dynamic import BatchArrivals, PoissonArrivals, run_dynamic_saer
from repro.errors import FaultSpecError
from repro.faults import (
    CLIENT_KINDS,
    FAULT_KINDS,
    SERVER_KINDS,
    FaultSchedule,
    FaultSpec,
    FaultyBatchedSaerPolicy,
    HealthPolicy,
    HealthTracker,
    faulty_policy_factory,
    stalled,
)
from repro.graphs import trust_subsets

KERNELS = available_kernels()


@pytest.fixture(scope="module")
def graph():
    return trust_subsets(192, 192, 12, seed=2)


class TestFaultSpec:
    def test_kind_vocabulary(self):
        assert set(SERVER_KINDS) | set(CLIENT_KINDS) == set(FAULT_KINDS)
        with pytest.raises(FaultSpecError):
            FaultSpec("meteor", 0.1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"fraction": -0.1},
            {"fraction": 1.5},
            {"start": -1},
            {"start": 5, "end": 5},
            {"period": 0},
            {"period": 4, "duty": 5},
            {"factor": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(FaultSpecError):
            FaultSpec("crash", **{"fraction": 0.1, **kwargs})

    def test_fault_spec_error_is_value_error(self):
        with pytest.raises(ValueError):
            FaultSpec("crash", 2.0)

    def test_active_window(self):
        s = FaultSpec("crash", 0.1, start=5, end=10)
        assert [s.active(t) for t in (4, 5, 9, 10)] == [False, True, True, False]

    def test_duty_cycle(self):
        s = stalled(0.25, start=0)  # 3-of-4 duty
        assert [s.active(t) for t in range(8)] == [
            True, True, True, False, True, True, True, False,
        ]

    def test_picklable(self):
        sch = FaultSchedule(
            (FaultSpec("crash", 0.2, start=3), stalled(0.1)), seed=7
        )
        assert pickle.loads(pickle.dumps(sch)) == sch

    def test_schedule_rejects_non_specs(self):
        with pytest.raises(FaultSpecError):
            FaultSchedule(("crash",), seed=0)


class TestMaterialization:
    def test_same_seed_same_members(self):
        sch = FaultSchedule((FaultSpec("crash", 0.25),), seed=13)
        a = sch.materialize(100, 80)
        b = sch.materialize(100, 80)
        assert np.array_equal(a.members[0], b.members[0])
        assert a.members[0].size == 20  # round(0.25 * 80)

    def test_adding_a_spec_never_reshuffles_earlier_ones(self):
        one = FaultSchedule((FaultSpec("crash", 0.25),), seed=13)
        two = FaultSchedule(
            (FaultSpec("crash", 0.25), FaultSpec("byz_server", 0.1)), seed=13
        )
        a = one.materialize(100, 80)
        b = two.materialize(100, 80)
        assert np.array_equal(a.members[0], b.members[0])

    def test_crash_wins_over_byzantine(self):
        sch = FaultSchedule(
            (FaultSpec("crash", 0.5), FaultSpec("byz_server", 0.5)), seed=3
        )
        mat = sch.materialize(10, 40)
        rej, byz = mat.server_overlay(0)
        assert np.intersect1d(rej, byz).size == 0

    def test_inactive_round_is_none(self):
        sch = FaultSchedule((FaultSpec("crash", 0.5, start=10),), seed=3)
        mat = sch.materialize(10, 40)
        assert mat.server_overlay(9) is None
        assert mat.server_overlay(10) is not None

    def test_transform_counts_identity_when_inactive(self):
        sch = FaultSchedule((FaultSpec("byz_client_dup", 0.5, start=5),), seed=3)
        mat = sch.materialize(40, 10)
        counts = np.ones(40, dtype=np.int64)
        assert mat.transform_counts(0, counts) is counts  # same object

    def test_dup_multiplies_and_misroute_conserves(self):
        sch = FaultSchedule(
            (
                FaultSpec("byz_client_dup", 0.25, factor=3),
                FaultSpec("byz_client_misroute", 0.25),
            ),
            seed=5,
        )
        mat = sch.materialize(80, 10)
        counts = np.ones(80, dtype=np.int64)
        out = mat.transform_counts(0, counts)
        dup_extra = 2 * mat.members[0].size  # factor-1 extras per faulty arrival
        assert out.sum() == 80 + dup_extra  # misroute moves, never creates
        assert counts.sum() == 80  # input untouched


class TestBatchLayer:
    def test_f0_bit_identical(self, graph):
        base = run_saer_batched(graph, 2.0, 4, n_trials=6, seed=11)
        f0 = run_saer_batched(
            graph, 2.0, 4, n_trials=6, seed=11,
            faults=FaultSchedule((FaultSpec("crash", 0.0),), seed=99),
        )
        assert np.array_equal(base.rounds, f0.rounds)
        assert np.array_equal(base.max_load, f0.max_load)
        assert np.array_equal(base.loads, f0.loads)

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("threads", [1, 2])
    def test_seeded_schedule_identical_across_gates(self, graph, kernel, threads):
        sch = FaultSchedule((FaultSpec("crash", 0.2, start=1),), seed=4)
        ref = run_saer_batched(
            graph, 2.0, 4, n_trials=5, seed=21, faults=sch, kernel="numpy"
        )
        res = run_saer_batched(
            graph, 2.0, 4, n_trials=5, seed=21, faults=sch,
            kernel=kernel, threads=threads, buffers=EngineBuffers(),
        )
        assert np.array_equal(ref.rounds, res.rounds)
        assert np.array_equal(ref.loads, res.loads)

    def test_crash_slows_completion(self, graph):
        base = run_saer_batched(graph, 2.0, 4, n_trials=6, seed=11)
        crashed = run_saer_batched(
            graph, 2.0, 4, n_trials=6, seed=11,
            faults=FaultSchedule((FaultSpec("crash", 0.3),), seed=4),
        )
        assert crashed.rounds.mean() > base.rounds.mean()

    def test_byzantine_ledger(self, graph):
        sch = FaultSchedule((FaultSpec("byz_server", 0.2),), seed=8)
        pol = FaultyBatchedSaerPolicy(
            6, graph.n_servers, ProtocolParams(c=2.0, d=4).capacity,
            sch.materialize(graph.n_clients, graph.n_servers),
        )
        res = run_trials_batched(
            graph, ProtocolParams(c=2.0, d=4), pol, n_trials=6, seed=11
        )
        # Conservation: honest-server loads + the liars' absorbed ledger
        # together cover every ball the engine counted as assigned.
        for r in range(6):
            assert res.loads[r].sum() + pol.byz_absorbed[r] == res.assigned_balls[r]
        assert pol.byz_absorbed.sum() > 0

    def test_client_kinds_rejected(self, graph):
        sch = FaultSchedule((FaultSpec("byz_client_dup", 0.1),), seed=1)
        with pytest.raises(FaultSpecError):
            run_saer_batched(graph, 2.0, 4, n_trials=2, seed=1, faults=sch)
        with pytest.raises(FaultSpecError):
            faulty_policy_factory("greedy", FaultSchedule(), 10)


class TestDynamicLayer:
    def test_f0_bit_identical(self, graph):
        arr = PoissonArrivals(0.4)
        base = run_dynamic_saer(graph, 2.0, 4, arr, 80, recovery=8, seed=5)
        f0 = run_dynamic_saer(
            graph, 2.0, 4, arr, 80, recovery=8, seed=5,
            faults=FaultSchedule((), seed=123),
        )
        assert np.array_equal(base.backlog, f0.backlog)
        assert np.array_equal(base.latencies, f0.latencies)
        assert np.array_equal(base.burned_fraction, f0.burned_fraction)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_seeded_schedule_identical_across_kernels(self, graph, kernel):
        arr = PoissonArrivals(0.4)
        schedules = (
            FaultSchedule(
                (FaultSpec("crash", 0.2, start=20, end=50), stalled(0.1)), seed=6
            ),
            # Byzantine servers from mid-run: some are already burned at
            # the onset, and every gate must un-burn them there.
            FaultSchedule((FaultSpec("byz_server", 0.2, start=30),), seed=6),
        )
        for sch in schedules:
            ref = run_dynamic_saer(
                graph, 2.0, 4, arr, 80, recovery=8, seed=5, faults=sch, kernel="numpy"
            )
            res = run_dynamic_saer(
                graph, 2.0, 4, arr, 80, recovery=8, seed=5, faults=sch, kernel=kernel
            )
            assert np.array_equal(ref.backlog, res.backlog)
            assert np.array_equal(ref.latencies, res.latencies)
            assert ref.byz_absorbed == res.byz_absorbed

    def test_crash_window_backlog_recovers(self, graph):
        arr = PoissonArrivals(0.3)
        sch = FaultSchedule((FaultSpec("crash", 0.3, start=30, end=60),), seed=6)
        res = run_dynamic_saer(
            graph, 2.0, 4, arr, 150, recovery=8, seed=5, faults=sch
        )
        stab = res.stabilization_round(after=60)
        assert stab is not None  # backlog re-enters its band after healing

    def test_byz_absorbed_reported(self, graph):
        arr = PoissonArrivals(0.3)
        sch = FaultSchedule((FaultSpec("byz_server", 0.2),), seed=6)
        res = run_dynamic_saer(graph, 2.0, 4, arr, 60, recovery=8, seed=5, faults=sch)
        assert res.byz_absorbed > 0
        base = run_dynamic_saer(graph, 2.0, 4, arr, 60, recovery=8, seed=5)
        assert base.byz_absorbed == 0

    def test_client_dup_inflates_arrivals(self, graph):
        arr = PoissonArrivals(0.3)
        base = run_dynamic_saer(graph, 2.0, 4, arr, 40, recovery=8, seed=5)
        dup = run_dynamic_saer(
            graph, 2.0, 4, arr, 40, recovery=8, seed=5,
            faults=FaultSchedule(
                (FaultSpec("byz_client_dup", 0.25, factor=3),), seed=6
            ),
        )
        assert dup.arrivals.sum() > base.arrivals.sum()

    def test_client_misroute_conserves_arrivals(self, graph):
        # BatchArrivals offers a deterministic total per round, so even
        # though misroute perturbs the downstream protocol-RNG stream,
        # the admitted total must stay exactly batch_size × horizon —
        # misroute moves balls between clients, never creates any.
        arr = BatchArrivals(50)
        mis = run_dynamic_saer(
            graph, 2.0, 4, arr, 40, recovery=8, seed=5,
            faults=FaultSchedule(
                (FaultSpec("byz_client_misroute", 0.25),), seed=6
            ),
        )
        assert mis.arrivals.sum() == 50 * 40
        assert mis.dropped == 0

    def test_stabilization_round_semantics(self, graph):
        arr = PoissonArrivals(0.3)
        res = run_dynamic_saer(graph, 2.0, 4, arr, 60, recovery=8, seed=5)
        # A healthy run is stable from (near) the start.
        assert res.stabilization_round() is not None
        # A permanent wipeout never restabilizes.
        wiped = run_dynamic_saer(
            graph, 2.0, 4, arr, 60, recovery=8, seed=5,
            faults=FaultSchedule((FaultSpec("crash", 1.0, start=10),), seed=1),
        )
        assert wiped.stabilization_round(after=10) is None


class TestHealthTracker:
    def test_quarantine_after_streak(self):
        tr = HealthTracker(HealthPolicy(fail_streak=3, quarantine_rounds=4), 4)
        received = np.array([5, 5, 0, 5])
        accepted = np.array([5, 0, 0, 5])  # server 1 rejects everything
        for _ in range(2):
            to_q, _ = tr.observe(received, accepted)
            assert to_q.size == 0
        to_q, _ = tr.observe(received, accepted)
        assert to_q.tolist() == [1]

    def test_no_evidence_no_streak(self):
        tr = HealthTracker(HealthPolicy(fail_streak=2), 3)
        # A server that receives nothing is unknown, not unhealthy.
        for _ in range(10):
            to_q, _ = tr.observe(np.zeros(3, np.int64), np.zeros(3, np.int64))
            assert to_q.size == 0

    def test_readmission_after_quarantine_rounds(self):
        tr = HealthTracker(HealthPolicy(fail_streak=1, quarantine_rounds=3), 2)
        received = np.array([4, 4])
        accepted = np.array([4, 0])
        to_q, _ = tr.observe(received, accepted)
        assert to_q.tolist() == [1]
        idle = np.zeros(2, np.int64)
        readmitted = []
        for _ in range(4):
            _, to_r = tr.observe(idle, idle)
            readmitted.extend(to_r.tolist())
        assert readmitted == [1]

    def test_fleet_fraction_cap(self):
        tr = HealthTracker(
            HealthPolicy(fail_streak=1, max_quarantine_fraction=0.25), 8
        )
        received = np.full(8, 4)
        accepted = np.zeros(8, np.int64)  # everyone looks dead
        to_q, _ = tr.observe(received, accepted)
        assert to_q.size == 2  # floor(0.25 * 8): never quarantine the fleet

    def test_state_round_trip(self):
        tr = HealthTracker(HealthPolicy(fail_streak=2), 3)
        tr.observe(np.array([4, 4, 4]), np.array([4, 0, 4]))
        clone = HealthTracker(HealthPolicy(fail_streak=2), 3)
        clone.set_state(tr.state())
        a = tr.observe(np.array([4, 4, 4]), np.array([4, 0, 4]))
        b = clone.observe(np.array([4, 4, 4]), np.array([4, 0, 4]))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
