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
