"""Tests for zero-copy graph sharing (repro.parallel.shared)."""

import pickle

import numpy as np
import pytest

from repro.core.engine import run_saer
from repro.graphs import BipartiteGraph, trust_subsets
from repro.parallel import (
    ParameterGrid,
    SharedGraph,
    current_task_graph,
    graph_context,
    run_sweep,
)


def _graphs_equal(a, b) -> bool:
    return (
        a.n_clients == b.n_clients
        and a.n_servers == b.n_servers
        and np.array_equal(a.client_indptr, b.client_indptr)
        and np.array_equal(a.client_indices, b.client_indices)
        and np.array_equal(a.server_indptr, b.server_indptr)
        and np.array_equal(a.server_indices, b.server_indices)
    )


def _graph_point(graph, point, seed_seq, trial):
    res = run_saer(graph, point["c"], 2, seed=seed_seq)
    return {"rounds": res.rounds}


def _graph_point_block(graph, point, seed_seqs, trials):
    return [_graph_point(graph, point, s, t) for s, t in zip(seed_seqs, trials)]


@pytest.fixture(scope="module")
def graph():
    return trust_subsets(64, 64, 8, seed=1)


class TestSharedGraph:
    def test_roundtrip_zero_copy(self, graph):
        with SharedGraph.share(graph) as sg:
            view = sg.graph
            assert _graphs_equal(view, graph)
            # Same buffer on repeated access, not a fresh copy.
            assert view is sg.graph

    def test_pickles_as_metadata_only(self, graph):
        with SharedGraph.share(graph) as sg:
            blob = pickle.dumps(sg)
            # A 64×64×8 graph is ~16KB of CSR; the handle must be far smaller.
            assert len(blob) < 2048
            attached = pickle.loads(blob)
            assert _graphs_equal(attached.graph, graph)
            attached.close()

    def test_unlink_removes_segment(self, graph):
        sg = SharedGraph.share(graph)
        name = sg.shm_name
        sg.unlink()
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name, create=False)

    def test_nbytes_covers_all_arrays(self, graph):
        with SharedGraph.share(graph) as sg:
            floor = sum(
                getattr(graph, f).nbytes
                for f in (
                    "client_indptr",
                    "client_indices",
                    "server_indptr",
                    "server_indices",
                )
            )
            assert sg.nbytes >= floor


class TestGraphContext:
    def test_serial_installs_parent_slot(self, graph):
        with graph_context(graph, processes=1) as (view, initializer, initargs):
            assert view is graph
            assert current_task_graph() is graph
        with pytest.raises(RuntimeError):
            current_task_graph()

    def test_shared_handle_used_verbatim(self, graph):
        with SharedGraph.share(graph) as sg:
            with graph_context(sg, processes=4) as (view, initializer, initargs):
                assert initargs == (sg,)
                assert _graphs_equal(view, graph)


class TestMonteCarloWithGraph:
    """Trials at one setting with ``graph=``: :func:`run_sweep` on a
    one-point grid, which spawns ``spawn_seeds(seed, n_trials)``."""

    GRID = [{"c": 2.0}]

    def test_serial_matches_parallel(self, graph):
        a = run_sweep(_graph_point, self.GRID, n_trials=6, seed=9, processes=1, graph=graph)
        b = run_sweep(_graph_point, self.GRID, n_trials=6, seed=9, processes=2, graph=graph)
        assert a == b

    def test_shared_memory_handle_matches(self, graph):
        a = run_sweep(_graph_point, self.GRID, n_trials=6, seed=9, processes=1, graph=graph)
        with SharedGraph.share(graph) as sg:
            c = run_sweep(_graph_point, self.GRID, n_trials=6, seed=9, processes=2, graph=sg)
        assert a == c

    def test_batched_backend_matches(self, graph):
        a = run_sweep(_graph_point, self.GRID, n_trials=8, seed=4, processes=1, graph=graph)
        b = run_sweep(
            _graph_point_block,
            self.GRID,
            n_trials=8,
            seed=4,
            processes=2,
            graph=graph,
            backend="batched",
        )
        assert a == b

    def test_seeds_match_graphless_spawn(self, graph):
        # graph= must not change which seed a trial sees.
        def bare_trial(point, seed_seq, trial):
            return {"entropy": seed_seq.spawn_key}

        def with_graph(g, point, seed_seq, trial):
            return {"entropy": seed_seq.spawn_key}

        a = run_sweep(bare_trial, self.GRID, n_trials=5, seed=77, processes=1)
        b = run_sweep(with_graph, self.GRID, n_trials=5, seed=77, processes=1, graph=graph)
        assert a == b


class TestRunSweepWithGraph:
    def test_serial_matches_parallel(self, graph):
        grid = ParameterGrid(c=[1.5, 2.0, 4.0])
        a = run_sweep(_graph_point, grid, n_trials=3, seed=5, processes=1, graph=graph)
        b = run_sweep(_graph_point, grid, n_trials=3, seed=5, processes=2, graph=graph)
        assert a == b

    def test_batched_matches_per_trial(self, graph):
        grid = ParameterGrid(c=[1.5, 4.0])
        a = run_sweep(_graph_point, grid, n_trials=4, seed=2, processes=1, graph=graph)
        b = run_sweep(
            _graph_point_block,
            grid,
            n_trials=4,
            seed=2,
            processes=2,
            graph=graph,
            backend="batched",
        )
        assert a == b

    def test_records_carry_point_and_trial(self, graph):
        grid = ParameterGrid(c=[2.0])
        recs = run_sweep(_graph_point, grid, n_trials=2, seed=0, processes=1, graph=graph)
        assert [(r["c"], r["trial"]) for r in recs] == [(2.0, 0), (2.0, 1)]
