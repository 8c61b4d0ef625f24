"""Tests for the graph generator zoo."""

import ctypes
import math
from unittest import mock

import numpy as np
import pytest

from repro.batch import resolve_kernel
from repro.errors import GraphConstructionError
from repro.graphs import generators
from repro.graphs import (
    biregular,
    complete_bipartite,
    erdos_renyi_bipartite,
    geometric_bipartite,
    near_regular,
    paper_extremal,
    random_regular_bipartite,
    trust_subsets,
)
from repro.graphs.properties import degree_report


class TestRegular:
    def test_exact_degrees(self):
        g = random_regular_bipartite(64, 7, seed=0)
        assert np.all(g.client_degrees == 7)
        assert np.all(g.server_degrees == 7)

    def test_simple_no_duplicates(self):
        g = random_regular_bipartite(50, 10, seed=1)
        edges = g.edges()
        keys = edges[:, 0] * g.n_servers + edges[:, 1]
        assert np.unique(keys).size == keys.size

    def test_deterministic_for_seed(self):
        a = random_regular_bipartite(40, 6, seed=5)
        b = random_regular_bipartite(40, 6, seed=5)
        assert np.array_equal(a.client_indices, b.client_indices)

    def test_different_seeds_differ(self):
        a = random_regular_bipartite(40, 6, seed=5)
        b = random_regular_bipartite(40, 6, seed=6)
        assert not np.array_equal(a.client_indices, b.client_indices)

    def test_full_degree_is_complete(self):
        g = random_regular_bipartite(8, 8, seed=0)
        assert g.n_edges == 64

    def test_degree_one_is_perfect_matching(self):
        g = random_regular_bipartite(32, 1, seed=3)
        assert np.all(g.client_degrees == 1)
        assert np.all(g.server_degrees == 1)

    def test_bad_params(self):
        with pytest.raises(GraphConstructionError):
            random_regular_bipartite(0, 1)
        with pytest.raises(GraphConstructionError):
            random_regular_bipartite(10, 0)
        with pytest.raises(GraphConstructionError):
            random_regular_bipartite(10, 11)

    def test_validates(self):
        random_regular_bipartite(30, 5, seed=2).validate()


class TestBiregular:
    def test_divisible_case(self):
        g = biregular(60, 30, 4, seed=0)
        assert np.all(g.client_degrees == 4)
        assert np.all(g.server_degrees == 8)

    def test_remainder_spread(self):
        g = biregular(10, 4, 3, seed=0)  # total 30, base 7 rem 2
        sdeg = g.server_degrees
        assert sorted(sdeg.tolist()) == [7, 7, 8, 8]

    def test_client_degree_exceeding_servers_rejected(self):
        with pytest.raises(GraphConstructionError):
            biregular(2, 2, 3)  # client degree > n_servers

    def test_server_overflow_rejected(self):
        # total 9 over 2 servers needs degrees {5,4} > n_clients=3
        with pytest.raises(GraphConstructionError):
            biregular(3, 2, 3)


class TestNearRegular:
    def test_client_degrees_within_band(self):
        g = near_regular(80, 6, 12, seed=1)
        assert g.client_degrees.min() >= 6
        assert g.client_degrees.max() <= 12

    def test_edge_balance(self):
        g = near_regular(80, 6, 12, seed=1)
        assert g.client_degrees.sum() == g.server_degrees.sum()
        # servers nearly even: max-min <= 1
        assert g.server_degrees.max() - g.server_degrees.min() <= 1

    def test_equal_band_is_regular(self):
        g = near_regular(40, 5, 5, seed=2)
        assert np.all(g.client_degrees == 5)

    def test_bad_band(self):
        with pytest.raises(GraphConstructionError):
            near_regular(10, 8, 4)


class TestPaperExtremal:
    def test_satisfies_theorem1_shape(self):
        g = paper_extremal(256, eta=0.5, seed=0)
        rep = degree_report(g)
        # heavy clients reach ~sqrt(n)
        assert rep.client_degree_max >= math.isqrt(256)
        # weak servers have tiny degree
        assert rep.server_degree_min <= 2
        assert rep.isolated_clients == 0

    def test_min_client_degree_is_eta_log2(self):
        n, eta = 256, 0.5
        g = paper_extremal(n, eta=eta, seed=1)
        want = math.ceil(eta * math.log(n) ** 2)
        assert g.client_degrees.min() == want

    def test_too_small_n_rejected(self):
        with pytest.raises(GraphConstructionError):
            paper_extremal(8)


class TestErdosRenyi:
    def test_zero_p_empty(self):
        g = erdos_renyi_bipartite(20, 20, 0.0, seed=0)
        assert g.n_edges == 0

    def test_one_p_complete(self):
        g = erdos_renyi_bipartite(10, 12, 1.0, seed=0)
        assert g.n_edges == 120

    def test_mean_degree_close(self):
        g = erdos_renyi_bipartite(400, 400, 0.05, seed=1)
        mean = g.client_degrees.mean()
        assert abs(mean - 20.0) < 3.0  # 5+ sigma margin

    def test_bad_p(self):
        with pytest.raises(GraphConstructionError):
            erdos_renyi_bipartite(4, 4, 1.5)


class TestGeometric:
    def test_edges_respect_radius_torus(self):
        r = 0.2
        g = geometric_bipartite(60, 60, r, seed=2, torus=True)
        assert g.n_edges > 0
        # expected degree ~ n pi r^2 = 7.5; allow broad band
        assert 2.0 < g.client_degrees.mean() < 20.0

    def test_larger_radius_more_edges(self):
        g1 = geometric_bipartite(80, 80, 0.1, seed=3)
        g2 = geometric_bipartite(80, 80, 0.3, seed=3)
        assert g2.n_edges > g1.n_edges

    def test_non_torus_boundary_fewer_edges(self):
        g_t = geometric_bipartite(100, 100, 0.2, seed=4, torus=True)
        g_p = geometric_bipartite(100, 100, 0.2, seed=4, torus=False)
        assert g_p.n_edges <= g_t.n_edges

    def test_bad_radius(self):
        with pytest.raises(GraphConstructionError):
            geometric_bipartite(4, 4, 0.0)


class TestTrustSubsets:
    def test_client_degrees_exact(self):
        g = trust_subsets(50, 70, 9, seed=0)
        assert np.all(g.client_degrees == 9)

    def test_neighbors_distinct(self):
        g = trust_subsets(30, 40, 13, seed=1)
        for v in range(30):
            row = g.neighbors_of_client(v)
            assert np.unique(row).size == row.size

    def test_k_equals_n_servers(self):
        g = trust_subsets(5, 6, 6, seed=2)
        assert np.all(g.client_degrees == 6)

    def test_bad_k(self):
        with pytest.raises(GraphConstructionError):
            trust_subsets(5, 6, 7)


class TestComplete:
    def test_counts(self):
        g = complete_bipartite(7, 9)
        assert g.n_edges == 63
        assert np.all(g.client_degrees == 9)
        assert np.all(g.server_degrees == 7)

    def test_bad_sizes(self):
        with pytest.raises(GraphConstructionError):
            complete_bipartite(0, 3)

    def test_complete_active_part_builds(self):
        """34 clients of degree 11, 11 servers of degree 34 and 25 of
        degree 0: the only simple realization is K(34, 11) on the
        servers of nonzero degree.  The swap walk stalls on it, and the
        stalled walk must return that graph instead of raising."""
        from repro.graphs.generators import _configuration_bipartite

        sdeg = np.zeros(36, dtype=np.int64)
        live = np.sort(np.random.default_rng(0).choice(36, 11, replace=False))
        sdeg[live] = 34
        g = _configuration_bipartite(np.full(34, 11), sdeg, np.random.default_rng(1), "k")
        g.validate()
        assert np.array_equal(g.client_indices, np.tile(live, 34))
        assert np.array_equal(g.server_degrees, sdeg)


def _simple(g) -> bool:
    """No parallel edges: every (client, server) pair appears once."""
    edges = g.edges()
    keys = edges[:, 0] * g.n_servers + edges[:, 1]
    return np.unique(keys).size == keys.size


class TestVectorizedGeneratorInvariants:
    """Invariants of the whole-array generator rewrites: exact degree
    sequences, simplicity, seeded determinism, and fixed-seed
    distribution sanity for each family."""

    def test_degree_sequences_exact(self):
        g = trust_subsets(200, 90, 11, seed=0)
        assert np.all(g.client_degrees == 11)
        from repro.graphs import community_bipartite

        g = community_bipartite(120, 6, 7, 5, seed=1)
        assert np.all(g.client_degrees == 12)

    def test_simplicity_all_families(self):
        cases = [
            trust_subsets(150, 60, 13, seed=2),
            erdos_renyi_bipartite(200, 180, 0.08, seed=3),
            erdos_renyi_bipartite(60, 60, 0.8, seed=4),  # dense/complement path
            geometric_bipartite(150, 150, 0.15, seed=5),
            geometric_bipartite(80, 80, 0.5, seed=6),  # coarse-grid dense path
        ]
        from repro.graphs import community_bipartite

        cases.append(community_bipartite(96, 8, 9, 3, seed=7))
        for g in cases:
            assert _simple(g), g.name
            g.validate()

    @pytest.mark.parametrize(
        "build",
        [
            lambda s: trust_subsets(64, 64, 8, seed=s),
            lambda s: erdos_renyi_bipartite(64, 64, 0.1, seed=s),
            lambda s: geometric_bipartite(64, 64, 0.2, seed=s),
        ],
        ids=["trust", "er", "geometric"],
    )
    def test_seeded_determinism_and_seed_sensitivity(self, build):
        a, b, c = build(11), build(11), build(12)
        assert np.array_equal(a.client_indptr, b.client_indptr)
        assert np.array_equal(a.client_indices, b.client_indices)
        assert not (
            np.array_equal(a.client_indptr, c.client_indptr)
            and np.array_equal(a.client_indices, c.client_indices)
        )

    def test_community_determinism(self):
        from repro.graphs import community_bipartite

        a = community_bipartite(64, 4, 6, 2, seed=9)
        b = community_bipartite(64, 4, 6, 2, seed=9)
        assert np.array_equal(a.client_indices, b.client_indices)

    def test_trust_per_client_marginals_uniform(self):
        # Each neighborhood is a uniform k-subset, so every server is hit
        # Binomial(n_clients, k/n_servers) times: 2000·10/50 = 400 ± 18
        # (1 sd).  A 6-sigma band keeps the fixed-seed test meaningful
        # without flaking.
        n_c, n_s, k = 2000, 50, 10
        g = trust_subsets(n_c, n_s, k, seed=31415)
        hits = g.server_degrees
        expected = n_c * k / n_s
        sd = math.sqrt(n_c * (k / n_s) * (1 - k / n_s))
        assert np.all(np.abs(hits - expected) < 6 * sd), hits

    def test_er_expected_degree(self):
        n, p = 600, 0.05
        g = erdos_renyi_bipartite(n, n, p, seed=2718)
        mean = float(g.client_degrees.mean())
        # mean of n Binomial(n, p) degrees: sd of the mean ≈ sqrt(p(1-p)/n)·sqrt(n)
        sd_mean = math.sqrt(n * p * (1 - p)) / math.sqrt(n)
        assert abs(mean - n * p) < 6 * sd_mean

    def test_geometric_expected_degree_torus(self):
        n, r = 500, 0.1
        g = geometric_bipartite(n, n, r, seed=161803, torus=True)
        expected = n * math.pi * r * r
        assert abs(float(g.client_degrees.mean()) - expected) < 0.25 * expected

    def test_community_within_across_counts_exact(self):
        from repro.graphs import community_bipartite

        n, groups, kin, kout = 80, 4, 6, 3
        group = n // groups
        g = community_bipartite(n, groups, kin, kout, seed=13)
        for v in range(n):
            nb = g.neighbors_of_client(v)
            own = (nb // group) == (v // group)
            assert int(own.sum()) == kin
            assert int((~own).sum()) == kout


class TestCompiledShuffle:
    """The cext gate's stub shuffle is ``Generator.shuffle`` bit for bit:
    the same order, the same PCG64 state after it (its ``has_uint32``
    buffer included) and so the same next draw."""

    @pytest.mark.parametrize("m", [0, 1, 2, 3, 17, 1_023, 4_096, 70_001])
    @pytest.mark.parametrize("buffered", [False, True])
    def test_matches_generator_shuffle(self, cext_gate, m, buffered):
        shuffle = resolve_kernel().shuffle_fn()
        assert shuffle is not None
        got_rng, want_rng = np.random.default_rng(m), np.random.default_rng(m)
        if buffered:  # one 32-bit draw leaves the upper half buffered
            got_rng.integers(0, 5)
            want_rng.integers(0, 5)
            assert got_rng.bit_generator.state["has_uint32"] == 1
        stubs = np.repeat(np.arange(m // 3 + 1, dtype=np.int64), 3)[:m]
        got, want = stubs.copy(), stubs.copy()
        shuffle(got_rng, got)
        want_rng.shuffle(want)
        assert np.array_equal(got, want)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        assert got_rng.integers(0, 2**62) == want_rng.integers(0, 2**62)

    def test_other_bit_generators_shuffle_through_numpy(self, cext_gate):
        shuffle = resolve_kernel().shuffle_fn()
        got_rng = np.random.Generator(np.random.MT19937(5))
        want_rng = np.random.Generator(np.random.MT19937(5))
        got, want = np.arange(100, dtype=np.int64), np.arange(100, dtype=np.int64)
        shuffle(got_rng, got)
        want_rng.shuffle(want)
        assert np.array_equal(got, want)

    def test_rejects_what_it_cannot_shuffle(self, cext_gate):
        shuffle = resolve_kernel().shuffle_fn()
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="1-D"):
            shuffle(rng, np.zeros((3, 4), dtype=np.int64))
        with pytest.raises(ctypes.ArgumentError):  # ctypes checks dtype and layout
            shuffle(rng, np.zeros(8, dtype=np.int32))
        with pytest.raises(ctypes.ArgumentError):
            shuffle(rng, np.zeros(8, dtype=np.int64)[::2])

    def test_numpy_gate_has_none(self):
        assert resolve_kernel("numpy").shuffle_fn() is None

    def test_restart_after_a_buffered_half(self, cext_gate, monkeypatch):
        """A one-pass budget restarts the build after the walk's
        ``rng.integers`` draws, which leave half of a 64-bit draw
        buffered; the restart's compiled shuffle must read it first."""
        choose = generators._choose_walk
        degrees = np.full(64, 3)

        def build(gate):
            monkeypatch.setenv("REPRO_KERNELS", gate)
            shuffles, starts = [], []

            def spy_choose(*args):
                shuffle, walk = choose(*args)
                shuffles.append(shuffle)

                def spy(rng, x):
                    starts.append(rng.bit_generator.state["has_uint32"])
                    shuffle(rng, x)

                return spy, walk

            rng = np.random.default_rng(1)
            with mock.patch.object(generators, "_choose_walk", spy_choose), \
                    mock.patch.object(generators, "_MAX_REPAIR_PASSES", 1):
                g = generators._configuration_bipartite(degrees, degrees, rng, "restart")
            arrays = [g.client_indptr.tolist(), g.client_indices.tolist()]
            return arrays, rng.bit_generator.state, shuffles, starts

        got, got_state, shuffles, starts = build("cext")
        assert shuffles[0] is not np.random.Generator.shuffle
        assert len(starts) > 1 and starts[1] == 1
        want, want_state, shuffles, want_starts = build("numpy")
        assert shuffles[0] is np.random.Generator.shuffle
        assert (got, got_state, starts) == (want, want_state, want_starts)
