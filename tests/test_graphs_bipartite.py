"""Tests for the CSR bipartite graph structure."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.config import ProtocolParams
from repro.core.metrics import Trace, TraceLevel
from repro.errors import GraphValidationError
from repro.graphs import BipartiteGraph, bipartite


def full_trace(graph) -> Trace:
    """A FULL trace bound to ``graph``: its ``A @ x`` neighbourhood sums."""
    trace = Trace(level=TraceLevel.FULL)
    trace.bind(graph, ProtocolParams(c=1.5, d=4))
    return trace


def tiny() -> BipartiteGraph:
    # 3 clients, 4 servers
    return BipartiteGraph.from_edges(
        3, 4, [(0, 0), (0, 2), (1, 1), (1, 2), (1, 3), (2, 0)]
    )


class TestConstruction:
    def test_sizes(self):
        g = tiny()
        assert g.n_clients == 3 and g.n_servers == 4 and g.n_edges == 6

    def test_neighbors_sorted(self):
        g = tiny()
        assert g.neighbors_of_client(1).tolist() == [1, 2, 3]
        assert g.neighbors_of_server(0).tolist() == [0, 2]

    def test_degrees(self):
        g = tiny()
        assert g.client_degrees.tolist() == [2, 3, 1]
        assert g.server_degrees.tolist() == [2, 1, 2, 1]

    def test_empty_graph(self):
        g = BipartiteGraph.from_edges(2, 2, [])
        assert g.n_edges == 0
        assert g.has_isolated_clients()

    def test_from_neighbor_lists(self):
        g = BipartiteGraph.from_neighbor_lists([[0, 1], [1]], n_servers=2)
        assert g.n_edges == 3
        assert g.neighbors_of_client(0).tolist() == [0, 1]

    def test_out_of_range_client_rejected(self):
        with pytest.raises(GraphValidationError):
            BipartiteGraph.from_edges(2, 2, [(2, 0)])

    def test_out_of_range_server_rejected(self):
        with pytest.raises(GraphValidationError):
            BipartiteGraph.from_edges(2, 2, [(0, 5)])

    def test_negative_index_rejected(self):
        with pytest.raises(GraphValidationError):
            BipartiteGraph.from_edges(2, 2, [(-1, 0)])

    def test_duplicate_edges_rejected(self):
        with pytest.raises(GraphValidationError):
            BipartiteGraph.from_edges(2, 2, [(0, 1), (0, 1)])

    def test_bad_shape_rejected(self):
        with pytest.raises(GraphValidationError):
            BipartiteGraph.from_edges(2, 2, np.array([[0, 1, 2]]))

    def test_negative_sizes_rejected(self):
        with pytest.raises(GraphValidationError):
            BipartiteGraph.from_edges(-1, 2, [])

    @pytest.mark.parametrize(
        "edges", [[(0.7, 1.9)], np.array([[0.0, 1.0]]), np.array([[True, False]])]
    )
    def test_non_integer_endpoints_rejected(self, edges):
        with pytest.raises(GraphValidationError, match="integers"):
            BipartiteGraph.from_edges(2, 2, edges)

    def test_empty_float_edges_accepted(self):
        for edges in (np.empty(0), np.empty((0, 2))):
            assert BipartiteGraph.from_edges(2, 2, edges).n_edges == 0


class TestInvariants:
    def test_validate_passes_on_good_graph(self):
        tiny().validate()

    def test_validate_catches_direction_mismatch(self):
        g = tiny()
        bad = BipartiteGraph(
            n_clients=g.n_clients,
            n_servers=g.n_servers,
            client_indptr=g.client_indptr,
            client_indices=g.client_indices.copy(),
            server_indptr=g.server_indptr,
            server_indices=g.server_indices.copy(),
        )
        bad.client_indices[0] = 1  # break the forward edge set only
        with pytest.raises(GraphValidationError):
            bad.validate()

    def test_validate_catches_bad_indptr(self):
        g = tiny()
        ptr = g.client_indptr.copy()
        ptr[1] = 99
        bad = BipartiteGraph(
            n_clients=3,
            n_servers=4,
            client_indptr=ptr,
            client_indices=g.client_indices,
            server_indptr=g.server_indptr,
            server_indices=g.server_indices,
        )
        with pytest.raises(GraphValidationError):
            bad.validate()

    def test_degree_sums_match(self, regular_graph):
        assert regular_graph.client_degrees.sum() == regular_graph.server_degrees.sum()

    def test_min_max_helpers(self):
        g = tiny()
        assert g.degree_min_clients() == 1
        assert g.degree_max_servers() == 2


class TestConversions:
    def test_edges_roundtrip(self):
        g = tiny()
        g2 = BipartiteGraph.from_edges(3, 4, g.edges())
        assert np.array_equal(g.client_indptr, g2.client_indptr)
        assert np.array_equal(g.client_indices, g2.client_indices)

    def test_neighbourhood_sums_of_ones_are_degrees(self):
        sums = full_trace(tiny())._neigh_sum(np.ones(4, dtype=np.int64))
        assert sums.dtype == np.float64 and sums.shape == (3,)
        assert np.array_equal(sums, tiny().client_degrees)

    def test_neighbourhood_sums_count_mass(self):
        served = np.array([True, False, True, False])
        per_client = full_trace(tiny())._neigh_sum(served)
        # client 0 neighbors {0,2} -> 2; client 1 {1,2,3} -> 1; client 2 {0} -> 1
        assert per_client.tolist() == [2.0, 1.0, 1.0]
        # integer sums are exact: they match a dense adjacency product
        g = BipartiteGraph.from_edges(
            40, 30, [(v, (7 * v + 3 * k) % 30) for v in range(40) for k in range(v % 6)]
        )
        dense = np.zeros((g.n_clients, g.n_servers), dtype=np.int64)
        dense[np.repeat(np.arange(g.n_clients), g.client_degrees), g.client_indices] = 1
        x = np.random.default_rng(0).integers(0, 10**6, g.n_servers)
        assert np.array_equal(full_trace(g)._neigh_sum(x), dense @ x)

    def test_to_networkx(self):
        g = tiny()
        nx_g = g.to_networkx()
        assert nx_g.number_of_nodes() == 7
        assert nx_g.number_of_edges() == 6
        assert nx_g.has_edge(("c", 1), ("s", 3))


class TestFromCsr:
    def test_matches_from_edges(self):
        g = tiny()
        g2 = BipartiteGraph.from_csr(
            3, 4, g.client_indptr, g.client_indices, name=g.name
        )
        assert np.array_equal(g.client_indptr, g2.client_indptr)
        assert np.array_equal(g.client_indices, g2.client_indices)
        assert np.array_equal(g.server_indptr, g2.server_indptr)
        assert np.array_equal(g.server_indices, g2.server_indices)
        g2.validate()

    def test_empty_rows_and_empty_graph(self):
        g = BipartiteGraph.from_csr(
            3, 2, np.array([0, 0, 1, 1]), np.array([1])
        )
        assert g.client_degrees.tolist() == [0, 1, 0]
        assert g.neighbors_of_server(1).tolist() == [1]
        empty = BipartiteGraph.from_csr(2, 2, np.zeros(3, dtype=np.int64), np.empty(0))
        assert empty.n_edges == 0
        empty.validate()

    def test_rejects_unsorted_row(self):
        with pytest.raises(GraphValidationError):
            BipartiteGraph.from_csr(1, 3, np.array([0, 2]), np.array([2, 0]))

    def test_rejects_duplicate_in_row(self):
        with pytest.raises(GraphValidationError):
            BipartiteGraph.from_csr(1, 3, np.array([0, 2]), np.array([1, 1]))

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphValidationError):
            BipartiteGraph.from_csr(1, 3, np.array([0, 1]), np.array([5]))
        with pytest.raises(GraphValidationError):
            BipartiteGraph.from_csr(2, 3, np.array([0, 1]), np.array([0]))

    def test_rejects_non_integer_arrays(self):
        with pytest.raises(GraphValidationError, match="client_indices"):
            BipartiteGraph.from_csr(1, 3, np.array([0, 1]), np.array([1.9]))
        with pytest.raises(GraphValidationError, match="client_indptr"):
            BipartiteGraph.from_csr(1, 3, np.array([0.0, 1.0]), np.array([1]))

    def test_rejects_bad_indptr(self):
        with pytest.raises(GraphValidationError):
            BipartiteGraph.from_csr(2, 3, np.array([0, 2, 1]), np.array([0, 1]))

    def test_reverse_adjacency_consistent(self, regular_graph):
        g2 = BipartiteGraph.from_csr(
            regular_graph.n_clients,
            regular_graph.n_servers,
            regular_graph.client_indptr,
            regular_graph.client_indices,
        )
        assert np.array_equal(g2.server_indptr, regular_graph.server_indptr)
        assert np.array_equal(g2.server_indices, regular_graph.server_indices)


@st.composite
def adjacency(draw):
    """A src×dst 0/1 matrix: empty rows, columns and ``nnz = 0`` included."""
    n_src = draw(st.integers(0, 12))
    n_dst = draw(st.integers(0, 12))
    bits = draw(st.lists(st.booleans(), min_size=n_src * n_dst, max_size=n_src * n_dst))
    return np.array(bits, dtype=bool).reshape(n_src, n_dst)


class TestTransposeParity:
    """The packed-key transpose, its stable-argsort fallback and scipy's
    COO→CSR (the implementation it replaced) agree on every shape."""

    @settings(max_examples=60, deadline=None)
    @given(adjacency())
    @example(np.array([[1], [0], [1], [1]], dtype=bool))  # n_dst = 1
    @example(np.zeros((3, 5), dtype=bool))  # nnz = 0
    @example(np.ones((2, 9), dtype=bool))  # unequal sides, full rows
    def test_packed_fallback_and_scipy_agree(self, adj):
        import scipy.sparse as sp

        n_src, n_dst = adj.shape
        rows, indices = np.nonzero(adj)
        indptr = np.zeros(n_src + 1, dtype=np.int64)
        np.cumsum(adj.sum(axis=1), out=indptr[1:])
        indices = indices.astype(np.int64)
        packed = bipartite._transpose_csr(n_src, n_dst, indptr, indices)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bipartite, "_PACKED_ID_LIMIT", 0)
            stable = bipartite._transpose_csr(n_src, n_dst, indptr, indices)
        ref = sp.coo_matrix(
            (np.ones(indices.size), (indices, rows)), shape=(n_dst, n_src)
        ).tocsr()
        for ours in (packed, stable):
            assert [a.dtype for a in ours] == [np.int64, np.int64]
            assert np.array_equal(ours[0], ref.indptr)
            assert np.array_equal(ours[1], ref.indices)


def _old_rows_strictly_sorted(indptr, indices) -> bool:
    """The row check ``from_csr`` used before: every within-row gap of
    ``np.diff(indices)``, gathered through a boolean mask, is positive."""
    if indices.size < 2:
        return True
    gaps = np.diff(indices)
    within = np.ones(indices.size - 1, dtype=bool)
    starts = indptr[1:-1]
    starts = starts[(starts > 0) & (starts < indices.size)]
    within[starts - 1] = False
    return bool(np.all(gaps[within] > 0))


class TestRowsStrictlySorted:
    """The one-pass row check keeps the diff-and-mask formula's verdict."""

    CASES = [
        ([], [0]),                               # no rows, no edges
        ([5], [0, 1]),                           # one edge
        ([2, 1], [0, 2]),                        # size 2, one row, decreasing
        ([1, 1], [0, 2]),                        # size 2, one row, equal
        ([1, 1], [0, 1, 2]),                     # size 2, equal across rows
        ([3, 1], [0, 1, 2]),                     # size 2, decreasing across rows
        ([0, 1, 2], [0, 0, 3]),                  # empty row first
        ([0, 1, 2], [0, 2, 2, 3]),               # empty row in the middle
        ([0, 1, 2], [0, 3, 3]),                  # empty row last
        ([0, 1, 2], [0, 0, 0, 3, 3]),            # empty rows first and last
        ([4, 4, 4, 4], [0, 1, 2, 3, 4]),         # one-element rows, all equal
        ([4, 2, 7, 0], [0, 1, 2, 3, 4]),         # one-element rows, unsorted
        ([1, 3, 3, 5], [0, 2, 4]),               # equal pair across a boundary
        ([1, 3, 3, 5], [0, 1, 4]),               # equal pair within a row
        ([1, 3, 2, 5], [0, 1, 4]),               # decreasing pair within a row
        ([1, 3, 2, 5], [0, 2, 2, 4]),            # decreasing across rows only
        ([0, 1, 0, 1], [0, 2, 2, 2, 4]),         # empty rows between equal rows
        ([0, 1, 1, 2], [0, 2, 2, 2, 4]),         # ... and a duplicate after them
    ]

    @pytest.mark.parametrize("indices, indptr", CASES)
    def test_matches_diff_and_mask(self, indices, indptr):
        indptr = np.array(indptr, dtype=np.int64)
        indices = np.array(indices, dtype=np.int64)
        got = bipartite._rows_strictly_sorted(indptr, indices)
        assert got == _old_rows_strictly_sorted(indptr, indices)

    def test_verdicts(self):
        ok = np.array([1, 3, 3, 5]), np.array([0, 2, 4])
        assert bipartite._rows_strictly_sorted(ok[1], ok[0])
        bad = np.array([1, 3, 3, 5]), np.array([0, 1, 4])
        assert not bipartite._rows_strictly_sorted(bad[1], bad[0])

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(0, 6), max_size=12), st.lists(st.integers(0, 5), max_size=12))
    def test_random_rows(self, values, lengths):
        indices = np.array(values[: sum(lengths)], dtype=np.int64)
        indptr = np.minimum(np.concatenate(([0], np.cumsum(lengths))), indices.size)
        indptr[-1] = indices.size
        got = bipartite._rows_strictly_sorted(indptr, indices)
        assert got == _old_rows_strictly_sorted(indptr, indices)


class TestReverseOnFirstRead:
    """``server_indptr``/``server_indices`` are built by the first read,
    not by ``from_csr``, and then kept."""

    @staticmethod
    def fresh():
        g = tiny()
        return BipartiteGraph.from_csr(3, 4, g.client_indptr, g.client_indices, name="t")

    @staticmethod
    def assert_reverse(g):
        want = bipartite._transpose_csr(g.n_clients, g.n_servers, g.client_indptr,
                                        g.client_indices)
        assert np.array_equal(g.server_indptr, want[0])
        assert np.array_equal(g.server_indices, want[1])

    def test_not_built_by_from_csr_or_degrees(self, monkeypatch):
        calls = []
        real = bipartite._transpose_csr
        monkeypatch.setattr(
            bipartite, "_transpose_csr", lambda *a: calls.append(1) or real(*a)
        )
        g = self.fresh()
        assert g.server_degrees.tolist() == [2, 1, 2, 1]
        assert g.degree_max_servers() == 2
        assert calls == [] and "_server_csr" not in vars(g)

    def test_first_read_transposes_once(self, monkeypatch):
        calls = []
        real = bipartite._transpose_csr
        monkeypatch.setattr(
            bipartite, "_transpose_csr", lambda *a: calls.append(1) or real(*a)
        )
        g = self.fresh()
        ptr, idx = g.server_indptr, g.server_indices
        assert g.server_indptr is ptr and g.server_indices is idx
        assert len(calls) == 1
        monkeypatch.undo()
        self.assert_reverse(g)
        assert g.neighbors_of_server(2).tolist() == [0, 1]
        assert np.array_equal(g.server_degrees, np.diff(g.server_indptr))

    def test_given_arrays_are_kept(self):
        g = tiny()
        ptr, idx = g.server_indptr.copy(), g.server_indices.copy()
        h = BipartiteGraph(3, 4, g.client_indptr, g.client_indices, ptr, idx)
        assert h.server_indptr is ptr and h.server_indices is idx
        with pytest.raises(TypeError, match="both"):
            BipartiteGraph(3, 4, g.client_indptr, g.client_indices, server_indptr=ptr)

    @pytest.mark.parametrize("read_first", [False, True])
    def test_pickles(self, read_first):
        import pickle

        g = self.fresh()
        if read_first:
            g.server_indices
        h = pickle.loads(pickle.dumps(g))
        assert ("_server_csr" in vars(h)) is read_first
        assert h.name == "t"
        assert np.array_equal(h.client_indices, g.client_indices)
        self.assert_reverse(h)
        h.validate()

    @pytest.mark.parametrize("read_first", [False, True])
    def test_survives_replace(self, read_first):
        import dataclasses

        g = self.fresh()
        if read_first:
            g.server_indptr
        h = dataclasses.replace(g, name="renamed")
        assert h.name == "renamed" and h.n_edges == g.n_edges
        self.assert_reverse(h)
        h.validate()
        with pytest.raises(dataclasses.FrozenInstanceError):
            h.name = "x"


def family_graphs():
    """One small graph of every generator family."""
    from repro import graphs as G

    return {
        "regular": G.random_regular_bipartite(48, 6, seed=1),
        "biregular": G.biregular(40, 20, 5, seed=2),
        "near_regular": G.near_regular(48, 4, 7, seed=3),
        "extremal": G.paper_extremal(64, eta=0.5, seed=4),
        "erdos_renyi": G.erdos_renyi_bipartite(30, 40, 0.2, seed=5),
        "geometric": G.geometric_bipartite(30, 40, 0.3, seed=6),
        "trust": G.trust_subsets(30, 40, 6, seed=7),
        "community": G.community_bipartite(48, 4, 5, 2, seed=8),
        "complete": G.complete_bipartite(7, 9),
        "tiny": tiny(),
    }


class TestServerDegreeCache:
    """``server_degrees`` is counted once per graph and kept read-only."""

    @pytest.mark.parametrize("family", sorted(family_graphs()))
    def test_values(self, family):
        g = family_graphs()[family]
        want = np.bincount(g.client_indices, minlength=g.n_servers)
        assert np.array_equal(g.server_degrees, want)
        assert g.server_degrees is g.server_degrees

    def test_read_only(self):
        g = tiny()
        with pytest.raises(ValueError):
            g.server_degrees[0] = 7
        assert g.server_degrees.tolist() == [2, 1, 2, 1]

    @pytest.mark.parametrize("read_first", [False, True])
    def test_pickles(self, read_first):
        import pickle

        g = tiny()
        if read_first:
            g.server_degrees
        h = pickle.loads(pickle.dumps(g))
        assert h.server_degrees.tolist() == [2, 1, 2, 1]
        assert not h.server_degrees.flags.writeable

    def test_replace_gives_a_fresh_graph(self):
        import dataclasses

        g = tiny()
        g.server_degrees
        other = BipartiteGraph.from_edges(3, 4, [(0, 3), (1, 3), (2, 3)])
        h = dataclasses.replace(
            g, client_indptr=other.client_indptr, client_indices=other.client_indices
        )
        assert h.server_degrees.tolist() == [0, 0, 0, 3]
        assert g.server_degrees.tolist() == [2, 1, 2, 1]

    def test_degree_report_counts_once(self, monkeypatch):
        from repro.graphs import degree_report

        g = family_graphs()["near_regular"]
        counts = []
        real = np.bincount
        monkeypatch.setattr(np, "bincount", lambda *a, **k: counts.append(1) or real(*a, **k))
        first = degree_report(g)
        assert degree_report(g) == first
        assert len(counts) == 1


class TestNoReverseOnRunPaths:
    """No run or serving path reads the reverse adjacency: a counting
    hook on ``_transpose_csr`` sees no call through a batched E1 run
    (graph builds, batched engine, spool) or a serving replay's set-up
    and rounds."""

    @pytest.fixture
    def transposes(self, monkeypatch):
        calls = []
        real = bipartite._transpose_csr
        monkeypatch.setattr(
            bipartite, "_transpose_csr", lambda *a: calls.append(a[:2]) or real(*a)
        )
        return calls

    @staticmethod
    def gate(monkeypatch, name):
        from repro.batch import available_kernels

        if name not in available_kernels():
            pytest.skip("needs a working C compiler")
        monkeypatch.setenv("REPRO_KERNELS", name)

    @pytest.mark.parametrize("kernel", ["numpy", "cext"])
    def test_batched_e1(self, transposes, monkeypatch, tmp_path, kernel):
        from repro.experiments.runners import run_e01_completion

        self.gate(monkeypatch, kernel)
        rows, _meta = run_e01_completion(
            ns=(64, 128), trials=3, seed=1, processes=1, backend="batched",
            kernel=kernel, spool=str(tmp_path / "spool"),
        )
        assert len(rows) == 2
        assert transposes == []

    @pytest.mark.parametrize("kernel", ["numpy", "cext"])
    def test_serving_replay(self, transposes, monkeypatch, kernel):
        from repro.graphs.families import build_point_graph
        from repro.serve import SaerService, ServeConfig, ServingState
        from repro.serve.loadgen import make_arrivals, run_inprocess, sample_trace

        self.gate(monkeypatch, kernel)
        graph = build_point_graph({"family": "trust", "n": 256}, 3)
        state = ServingState(graph, 2.0, 4, recovery=8, seed=4, kernel=kernel, track_tags=True)
        service = SaerService(state, ServeConfig(max_batch=1 << 30))
        trace = sample_trace(make_arrivals("poisson", 0.5), graph.n_clients, 20, 5)
        run = run_inprocess(service, trace)
        assert run["tally"]["assigned"] > 0
        assert transposes == []
