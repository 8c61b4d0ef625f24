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
)
from repro.plan import (
    BackendSpec,
    ExecSpec,
    GraphSpec,
    RunPlan,
    SeedSpec,
    WorkSpec,
    execute,
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


def _graph_point(graph, point, seed_seq):
    res = run_saer(graph, point["c"], 2, seed=seed_seq)
    return {"rounds": res.rounds}


def _graph_point_block(graph, point, seed_seqs):
    return [_graph_point(graph, point, s) for s in seed_seqs]


def _sweep(grid, trials, seed, graph, *, processes=1, batch=None, record=_graph_point):
    """``execute`` on a pinned ``graph``, task seeds handed unsplit."""
    return list(execute(RunPlan(
        grid=grid,
        work=WorkSpec(record=record, batch=batch),
        trials=trials,
        seeds=SeedSpec(root=seed, mode="direct"),
        backend=BackendSpec(name="batched" if batch is not None else "reference"),
        graph=GraphSpec(graph=graph),
        execution=ExecSpec(processes=processes),
    )))


def _spawn_key(graph, point, seed_seq):
    return {"entropy": list(seed_seq.spawn_key)}


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
    """Trials at one setting on a pinned graph: ``execute`` on a
    one-point grid, which spawns ``spawn_seeds(seed, n_trials)``."""

    GRID = [{"c": 2.0}]

    def test_serial_matches_parallel(self, graph):
        a = _sweep(self.GRID, 6, 9, graph, processes=1)
        b = _sweep(self.GRID, 6, 9, graph, processes=2)
        assert a == b

    def test_shared_memory_handle_matches(self, graph):
        a = _sweep(self.GRID, 6, 9, graph, processes=1)
        with SharedGraph.share(graph) as sg:
            c = _sweep(self.GRID, 6, 9, sg, processes=2)
        assert a == c

    def test_batched_backend_matches(self, graph):
        a = _sweep(self.GRID, 8, 4, graph, processes=1)
        b = _sweep(self.GRID, 8, 4, graph, processes=2, batch=_graph_point_block)
        assert a == b

    def test_seeds_match_graphless_spawn(self, graph):
        # A pinned graph must not change which seed a trial sees: trial
        # r gets child r of the root's spawn, as without a graph.
        got = _sweep(self.GRID, 5, 77, graph, record=_spawn_key)
        want = [list(s.spawn_key) for s in np.random.SeedSequence(77).spawn(5)]
        assert [r["entropy"] for r in got] == want


class TestRunSweepWithGraph:
    def test_serial_matches_parallel(self, graph):
        grid = ParameterGrid(c=[1.5, 2.0, 4.0])
        a = _sweep(grid, 3, 5, graph, processes=1)
        b = _sweep(grid, 3, 5, graph, processes=2)
        assert a == b

    def test_batched_matches_per_trial(self, graph):
        grid = ParameterGrid(c=[1.5, 4.0])
        a = _sweep(grid, 4, 2, graph, processes=1)
        b = _sweep(grid, 4, 2, graph, processes=2, batch=_graph_point_block)
        assert a == b

    def test_records_carry_point_and_trial(self, graph):
        grid = ParameterGrid(c=[2.0])
        recs = _sweep(grid, 2, 0, graph, processes=1)
        assert [(r["c"], r["trial"]) for r in recs] == [(2.0, 0), (2.0, 1)]
