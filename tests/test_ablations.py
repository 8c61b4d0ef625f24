"""Tests for the ablation runner and the A3 sampling variant."""

import numpy as np
import pytest

from repro.core.engine import draw_destinations_distinct, run_saer
from repro.errors import ProtocolConfigError
from repro.experiments.ablations import run_ablations
from repro.graphs import BipartiteGraph


def _draw_destinations_distinct_loop(
    graph: BipartiteGraph,
    clients: np.ndarray,
    counts: np.ndarray,
    uniforms: np.ndarray,
) -> np.ndarray:
    """Per-client-loop reference for :func:`draw_destinations_distinct`.

    Kept as the executable specification of the tape semantics: the
    vectorized implementation must be bit-identical to this under
    matching uniforms.
    """
    total = int(counts.sum())
    dest = np.empty(total, dtype=np.int64)
    if uniforms.size != total:
        raise ValueError(f"need {total} uniforms, got {uniforms.size}")
    pos = 0
    for v, k in zip(clients.tolist(), counts.tolist()):
        if k == 0:
            continue
        row = graph.neighbors_of_client(v)
        deg = row.size
        idx = np.arange(deg, dtype=np.int64)
        for j in range(k):
            jj = j % deg
            if jj == 0 and j > 0:
                idx = np.arange(deg, dtype=np.int64)
            u = float(uniforms[pos + j])
            pick = jj + min(int(u * (deg - jj)), deg - jj - 1)
            idx[jj], idx[pick] = idx[pick], idx[jj]
            dest[pos + j] = row[idx[jj]]
        pos += k
    return dest


class TestDistinctSampling:
    def test_destinations_distinct_within_client(self, regular_graph):
        rng = np.random.default_rng(0)
        clients = np.array([0, 3, 7])
        counts = np.array([4, 1, 5])
        dest = draw_destinations_distinct(regular_graph, clients, counts, rng.random(10))
        assert len(set(dest[:4].tolist())) == 4
        assert len(set(dest[5:].tolist())) == 5

    def test_destinations_belong_to_neighborhoods(self, regular_graph):
        rng = np.random.default_rng(1)
        clients = np.array([2, 5])
        counts = np.array([3, 3])
        dest = draw_destinations_distinct(regular_graph, clients, counts, rng.random(6))
        n0 = set(regular_graph.neighbors_of_client(2).tolist())
        n1 = set(regular_graph.neighbors_of_client(5).tolist())
        assert set(dest[:3].tolist()) <= n0
        assert set(dest[3:].tolist()) <= n1

    def test_wraps_when_balls_exceed_degree(self):
        g = BipartiteGraph.from_edges(1, 2, [(0, 0), (0, 1)])
        rng = np.random.default_rng(2)
        dest = draw_destinations_distinct(g, np.array([0]), np.array([5]), rng.random(5))
        # first two distinct, then a fresh pass
        assert len(set(dest[:2].tolist())) == 2
        assert set(dest.tolist()) <= {0, 1}

    def test_uniform_count_mismatch(self, regular_graph):
        with pytest.raises(ValueError):
            draw_destinations_distinct(
                regular_graph, np.array([0]), np.array([2]), np.array([0.5])
            )

    def test_run_saer_without_replacement_invariants(self, regular_graph):
        res = run_saer(regular_graph, 1.5, 4, seed=3, sampling="without_replacement")
        assert res.max_load <= res.params.capacity
        assert res.assigned_balls + res.alive_balls == res.total_balls

    def test_incompatible_with_slot_mode(self, regular_graph):
        with pytest.raises(ProtocolConfigError):
            run_saer(
                regular_graph, 2.0, 2, seed=0, sampling="without_replacement", slot_mode=True
            )

    def test_unknown_sampling_rejected(self, regular_graph):
        with pytest.raises(ProtocolConfigError):
            run_saer(regular_graph, 2.0, 2, seed=0, sampling="bogus")


class TestAblationRunner:
    def test_small_run_shape(self):
        rows, meta = run_ablations(n=128, c=1.5, d=4, trials=2, processes=1, seed=9)
        assert len(rows) == 4
        variants = {r["variant"] for r in rows}
        assert "saer (baseline)" in variants
        assert "distinct-sampling" in variants
        for row in rows:
            assert row["max_load_worst"] <= row["capacity"]
            assert row["completed"] == row["trials"]


class TestDistinctSamplingVectorized:
    """The segmented Fisher–Yates rewrite must replay the per-client
    reference loop bit-for-bit under matching uniform tapes."""

    def test_bit_equivalent_to_reference_loop(self, regular_graph, trust_graph):
        rng = np.random.default_rng(42)
        for g in (regular_graph, trust_graph):
            for _ in range(10):
                n_act = int(rng.integers(1, g.n_clients + 1))
                clients = np.sort(rng.choice(g.n_clients, size=n_act, replace=False))
                counts = rng.integers(0, 7, size=n_act)
                u = rng.random(int(counts.sum()))
                ref = _draw_destinations_distinct_loop(g, clients, counts, u)
                vec = draw_destinations_distinct(g, clients, counts, u)
                assert np.array_equal(ref, vec)

    def test_bit_equivalent_with_wraparound(self):
        g = BipartiteGraph.from_edges(2, 3, [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2)])
        rng = np.random.default_rng(3)
        clients = np.array([0, 1])
        counts = np.array([7, 8])  # both exceed the degrees -> fresh passes
        u = rng.random(15)
        assert np.array_equal(
            _draw_destinations_distinct_loop(g, clients, counts, u),
            draw_destinations_distinct(g, clients, counts, u),
        )

    def test_empty_counts(self, regular_graph):
        out = draw_destinations_distinct(
            regular_graph, np.array([0, 1]), np.array([0, 0]), np.empty(0)
        )
        assert out.size == 0

    def test_isolated_client_with_balls_rejected(self):
        from repro.errors import GraphValidationError

        # client 1 has no neighbors; drawing for it must fail loudly
        # rather than read another client's row.
        g = BipartiteGraph.from_edges(2, 2, [(0, 0), (0, 1)])
        with pytest.raises(GraphValidationError):
            draw_destinations_distinct(
                g, np.array([0, 1]), np.array([1, 1]), np.array([0.5, 0.5])
            )
        # degree-0 clients with zero balls are fine
        out = draw_destinations_distinct(
            g, np.array([0, 1]), np.array([2, 0]), np.array([0.1, 0.9])
        )
        assert out.size == 2
