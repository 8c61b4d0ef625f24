"""Tests for the trial-vectorized batched engine (`repro.batch`).

The load-bearing contract is *trial-for-trial bit-equivalence*: for
matching per-trial seeds, the batched engine must produce exactly the
results the reference engine (`repro.core.engine.run_protocol`) produces
— rounds, work, completion, max load, blocked servers, and the full
per-server load vector.  Everything else (results adapter, API
validation, backend plumbing) is secondary.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import (
    BatchedRaesPolicy,
    BatchedSaerPolicy,
    BatchResult,
    run_raes_batched,
    run_saer_batched,
    run_trials_batched,
)
from repro.core.config import ProtocolParams, RunOptions
from repro.core.engine import run_protocol
from repro.errors import NonTerminationError, ProtocolConfigError
from repro.graphs import BipartiteGraph, near_regular, random_regular_bipartite, trust_subsets
from repro.rng import spawn_seeds


def assert_trials_match_reference(graph, params, policy, seeds, demands=None, options=None):
    """Per-trial equality of every RunResult-visible field."""
    batch = run_trials_batched(
        graph, params, policy, seeds=seeds, demands=demands, options=options
    )
    for i, seed in enumerate(seeds):
        ref = run_protocol(
            graph, params, policy, seed=seed, demands=demands, options=options
        )
        got = (
            int(batch.rounds[i]),
            int(batch.work[i]),
            bool(batch.completed[i]),
            int(batch.assigned_balls[i]),
            int(batch.max_load[i]),
            int(batch.blocked_servers[i]),
        )
        want = (
            ref.rounds,
            ref.work,
            ref.completed,
            ref.assigned_balls,
            ref.max_load,
            ref.blocked_servers,
        )
        assert got == want, f"trial {i}: batched {got} != reference {want}"
        assert np.array_equal(batch.loads[i], ref.loads)
    return batch


class TestEquivalence:
    """Batched == reference, trial for trial, under matching seeds."""

    @pytest.mark.parametrize("policy", ["saer", "raes"])
    @pytest.mark.parametrize("c,d", [(1.5, 4), (1.2, 3), (2.0, 2), (1.0, 1)])
    def test_regular_graph(self, regular_graph, policy, c, d):
        seeds = spawn_seeds(1001, 8)
        assert_trials_match_reference(regular_graph, ProtocolParams(c=c, d=d), policy, seeds)

    @pytest.mark.parametrize("policy", ["saer", "raes"])
    def test_irregular_graph(self, policy):
        graph = near_regular(96, 8, 20, seed=6)
        seeds = spawn_seeds(1002, 8)
        assert_trials_match_reference(graph, ProtocolParams(c=1.5, d=4), policy, seeds)

    @pytest.mark.parametrize("policy", ["saer", "raes"])
    def test_trust_graph(self, trust_graph, policy):
        seeds = spawn_seeds(1003, 6)
        assert_trials_match_reference(trust_graph, ProtocolParams(c=2.0, d=3), policy, seeds)

    def test_integer_seeds(self, regular_graph):
        # Plain int seeds must hit the same default_rng streams too.
        seeds = [11, 22, 33, 44]
        assert_trials_match_reference(regular_graph, ProtocolParams(c=1.5, d=4), "saer", seeds)

    @pytest.mark.parametrize("policy", ["saer", "raes"])
    def test_heterogeneous_demands(self, regular_graph, policy):
        rng = np.random.default_rng(9)
        demands = rng.integers(0, 5, size=regular_graph.n_clients)
        seeds = spawn_seeds(1004, 6)
        assert_trials_match_reference(
            regular_graph, ProtocolParams(c=1.5, d=4), policy, seeds, demands=demands
        )

    def test_isolated_client_with_zero_demand(self):
        # A degree-0 client is legal iff its demand is 0; both engines
        # must agree on the edge case.
        graph = BipartiteGraph.from_edges(3, 3, [(0, 0), (0, 1), (2, 2), (2, 0)])
        demands = np.array([2, 0, 2])
        seeds = spawn_seeds(1005, 5)
        assert_trials_match_reference(
            graph, ProtocolParams(c=2.0, d=2), "saer", seeds, demands=demands
        )

    @pytest.mark.parametrize("policy", ["saer", "raes"])
    def test_round_cap_equivalence(self, regular_graph, policy):
        # c=1.2 stalls; both engines must report identical capped trials.
        seeds = spawn_seeds(1006, 6)
        assert_trials_match_reference(
            regular_graph,
            ProtocolParams(c=1.2, d=4),
            policy,
            seeds,
            options=RunOptions(max_rounds=5),
        )

    def test_large_graph_wide_dtypes(self):
        # n > 2^15 forces the engine off the int16 fast dtypes.
        graph = random_regular_bipartite(40_000, 12, seed=8)
        seeds = spawn_seeds(1007, 3)
        assert_trials_match_reference(graph, ProtocolParams(c=2.0, d=2), "saer", seeds)

    def test_to_run_results_adapter(self, regular_graph):
        params = ProtocolParams(c=1.5, d=4)
        seeds = spawn_seeds(1008, 5)
        batch = run_trials_batched(regular_graph, params, "saer", seeds=seeds)
        for i, (adapted, seed) in enumerate(zip(batch.to_run_results(), seeds)):
            ref = run_protocol(regular_graph, params, "saer", seed=seed)
            assert adapted.summary() == ref.summary(), f"trial {i}"
            assert np.array_equal(adapted.loads, ref.loads)


class TestPropertyBasedEquivalence:
    """Satellite: seeded-random graphs/demands never break equivalence."""

    @settings(max_examples=30, deadline=None)
    @given(
        case_seed=st.integers(min_value=0, max_value=10_000),
        n_clients=st.integers(min_value=1, max_value=10),
        n_servers=st.integers(min_value=1, max_value=10),
        d=st.integers(min_value=1, max_value=3),
        c=st.floats(min_value=1.0, max_value=4.0, allow_nan=False),
        policy=st.sampled_from(["saer", "raes"]),
        n_trials=st.integers(min_value=1, max_value=5),
        cap=st.one_of(st.none(), st.integers(min_value=1, max_value=6)),
    )
    def test_random_graphs_and_demands(
        self, case_seed, n_clients, n_servers, d, c, policy, n_trials, cap
    ):
        rng = np.random.default_rng(case_seed)
        adjacency = rng.random((n_clients, n_servers)) < 0.4
        edges = np.argwhere(adjacency)
        graph = BipartiteGraph.from_edges(n_clients, n_servers, edges)
        demands = rng.integers(0, d + 1, size=n_clients)
        demands[graph.client_degrees == 0] = 0  # isolated ⇒ no balls
        seeds = spawn_seeds(case_seed + 1, n_trials)
        options = RunOptions(max_rounds=cap) if cap is not None else None
        assert_trials_match_reference(
            graph, ProtocolParams(c=float(c), d=d), policy, seeds,
            demands=demands, options=options,
        )


class TestBatchResult:
    def test_shapes_and_accounting(self, regular_graph):
        batch = run_saer_batched(regular_graph, 1.5, 4, n_trials=7, seed=3)
        assert len(batch) == 7
        for field in (batch.completed, batch.rounds, batch.work, batch.max_load):
            assert field.shape == (7,)
        assert batch.loads.shape == (7, regular_graph.n_servers)
        assert np.all(batch.assigned_balls + batch.alive_balls == batch.total_balls)
        assert 0.0 <= batch.completion_rate <= 1.0

    def test_summary_keys(self, regular_graph):
        batch = run_raes_batched(regular_graph, 2.0, 2, n_trials=4, seed=5)
        summary = batch.summary()
        for key in ("protocol", "trials", "completion_rate", "rounds_median", "capacity"):
            assert key in summary
        assert summary["protocol"] == "raes"
        assert summary["trials"] == 4

    def test_record_loads_off(self, regular_graph):
        batch = run_saer_batched(
            regular_graph, 1.5, 4, n_trials=3, seed=3, options=RunOptions(record_loads=False)
        )
        assert batch.loads is None
        results = batch.to_run_results()
        assert all(r.loads is None for r in results)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            BatchResult(
                protocol="saer",
                graph_name="g",
                n_clients=2,
                n_servers=2,
                params=ProtocolParams(c=2.0, d=1),
                n_trials=3,
                completed=np.ones(2, dtype=bool),  # wrong length
                rounds=np.ones(3, dtype=np.int64),
                work=np.ones(3, dtype=np.int64),
                total_balls=2,
                assigned_balls=np.ones(3, dtype=np.int64),
                max_load=np.ones(3, dtype=np.int64),
                blocked_servers=np.zeros(3, dtype=np.int64),
            )


class TestEngineApi:
    def test_seed_spawning_matches_explicit_seeds(self, regular_graph):
        a = run_saer_batched(regular_graph, 1.5, 4, n_trials=5, seed=42)
        b = run_saer_batched(regular_graph, 1.5, 4, seeds=spawn_seeds(42, 5))
        assert np.array_equal(a.rounds, b.rounds)
        assert np.array_equal(a.work, b.work)
        assert np.array_equal(a.loads, b.loads)

    def test_zero_trials(self, regular_graph):
        batch = run_saer_batched(regular_graph, 1.5, 4, n_trials=0)
        assert len(batch) == 0
        assert batch.to_run_results() == []
        assert bool(batch.completed.all())

    def test_zero_demands_complete_in_zero_rounds(self, regular_graph):
        demands = np.zeros(regular_graph.n_clients, dtype=np.int64)
        batch = run_saer_batched(regular_graph, 1.5, 4, n_trials=3, seed=1, demands=demands)
        assert np.all(batch.completed)
        assert np.all(batch.rounds == 0)
        assert np.all(batch.work == 0)

    def test_conflicting_trial_spec_rejected(self, regular_graph):
        with pytest.raises(ProtocolConfigError):
            run_saer_batched(regular_graph, 1.5, 4, n_trials=3, seeds=spawn_seeds(0, 4))
        with pytest.raises(ProtocolConfigError):
            run_saer_batched(regular_graph, 1.5, 4, seeds=spawn_seeds(0, 4), seed=1)
        with pytest.raises(ProtocolConfigError):
            run_saer_batched(regular_graph, 1.5, 4)
        with pytest.raises(ProtocolConfigError):
            run_saer_batched(regular_graph, 1.5, 4, n_trials=-1)

    def test_unknown_policy_rejected(self, regular_graph):
        with pytest.raises(ProtocolConfigError):
            run_trials_batched(regular_graph, ProtocolParams(c=2.0, d=2), "nope", n_trials=2)

    def test_policy_instance_accepted(self, regular_graph):
        pol = BatchedRaesPolicy(3, regular_graph.n_servers, ProtocolParams(c=2.0, d=2).capacity)
        batch = run_trials_batched(
            regular_graph, ProtocolParams(c=2.0, d=2), pol, n_trials=3, seed=7
        )
        assert batch.protocol == "raes"

    def test_raise_on_cap_carries_batch_result(self, regular_graph):
        with pytest.raises(NonTerminationError) as excinfo:
            run_saer_batched(
                regular_graph, 1.2, 4, n_trials=4, seed=2,
                options=RunOptions(max_rounds=2, raise_on_cap=True),
            )
        result = excinfo.value.result
        assert isinstance(result, BatchResult)
        assert not result.completed.all()
        assert np.all(result.rounds[~result.completed] == 2)

    def test_max_load_invariant(self, regular_graph):
        for policy in ("saer", "raes"):
            batch = run_trials_batched(
                regular_graph, ProtocolParams(c=1.5, d=4), policy, n_trials=6, seed=8
            )
            assert np.all(batch.max_load <= batch.params.capacity)

    def test_bits_immune_to_seed_mode_env(self, regular_graph, monkeypatch, capsys):
        """Every trial draws from its PCG64 stream whatever the
        environment says: an exported ``REPRO_SEED_MODE`` changes no bit
        and prints nothing."""

        def run():
            return run_trials_batched(
                regular_graph, ProtocolParams(c=1.5, d=4), "saer",
                n_trials=4, seed=5, options=RunOptions(record_loads=True),
            )

        monkeypatch.delenv("REPRO_SEED_MODE", raising=False)
        clean = run()
        capsys.readouterr()
        monkeypatch.setenv("REPRO_SEED_MODE", "philox")
        polluted = run()
        assert capsys.readouterr() == ("", "")
        for field in ("rounds", "work", "assigned_balls", "max_load", "loads"):
            assert np.array_equal(getattr(clean, field), getattr(polluted, field)), field


class TestPolicyState:
    """A policy the engine builds from its name gets its state from the
    engine's buffers alone; one the caller passes keeps its own arrays."""

    @pytest.mark.parametrize("policy", ["saer", "raes"])
    def test_named_policy_allocates_no_state_before_take_state(
        self, regular_graph, monkeypatch, policy
    ):
        R, n_s = 6, regular_graph.n_servers
        events = []
        real_zeros = np.zeros
        monkeypatch.setattr(np, "zeros", lambda shape, *a, **k: events.append(
            ("zeros", np.atleast_1d(shape).tolist())) or real_zeros(shape, *a, **k))
        cls = BatchedSaerPolicy if policy == "saer" else BatchedRaesPolicy
        real_take = cls.take_state

        def take_state(pol, *args):
            events.append(("take_state", sorted(
                name for name, v in vars(pol).items() if isinstance(v, np.ndarray)
            )))
            return real_take(pol, *args)

        monkeypatch.setattr(cls, "take_state", take_state)
        run_trials_batched(regular_graph, ProtocolParams(c=1.5, d=4), policy,
                           n_trials=R, seed=2)
        takes = [i for i, e in enumerate(events) if e[0] == "take_state"]
        assert len(takes) == 1 and events[takes[0]][1] == []
        assert ("zeros", [R, n_s]) not in events[: takes[0]]

    @pytest.mark.parametrize("policy_cls", [BatchedSaerPolicy, BatchedRaesPolicy])
    def test_caller_policy_keeps_its_arrays(self, regular_graph, policy_cls):
        from repro.batch import EngineBuffers

        R, n_s = 5, regular_graph.n_servers
        bufs = EngineBuffers()
        pol = policy_cls(R, n_s, 6)
        res = run_trials_batched(regular_graph, ProtocolParams(c=1.5, d=4), pol,
                                 seeds=spawn_seeds(4, R), buffers=bufs)
        named = run_trials_batched(regular_graph, ProtocolParams(c=1.5, d=4),
                                   pol.name, seeds=spawn_seeds(4, R))
        assert np.array_equal(res.loads, named.loads)
        state = [pol.loads] + ([pol.cum_received] if policy_cls is BatchedSaerPolicy else [])
        for arr in state:
            assert arr.shape == (R, n_s) and arr.flags.owndata
            assert not any(np.shares_memory(arr, b) for b in bufs._arrays.values())
        assert np.array_equal(pol.loads, res.loads)

    def test_constructor_state(self):
        pol = BatchedSaerPolicy(3, 5, 2)
        for arr in (pol.loads, pol.cum_received):
            assert arr.dtype == np.int64 and arr.shape == (3, 5) and not arr.any()
        assert BatchedRaesPolicy(3, 5, 2).loads.shape == (3, 5)


class TestBatchedPolicies:
    def test_saer_burned_is_derived(self):
        pol = BatchedSaerPolicy(2, 4, capacity=3)
        received = np.array([[2, 4, 0, 1], [0, 0, 5, 0]], dtype=np.int64)
        accept = pol.decide_dense(np.arange(2), received)
        assert accept.tolist() == [[True, False, True, True], [True, True, False, True]]
        assert pol.burned.tolist() == [
            [False, True, False, False],
            [False, False, True, False],
        ]
        assert pol.blocked_counts().tolist() == [1, 1]

    def test_invalid_construction(self):
        with pytest.raises(ProtocolConfigError):
            BatchedSaerPolicy(-1, 4, 2)
        with pytest.raises(ProtocolConfigError):
            BatchedSaerPolicy(2, -1, 2)
        with pytest.raises(ProtocolConfigError):
            BatchedSaerPolicy(2, 4, 0)
