"""Property-based tests (hypothesis) on core invariants.

These sample small random topologies and parameters and assert the
invariants the paper's correctness rests on: load caps, ball
conservation, burned-set monotonicity, coupling dominance, tape
determinism, and graph structural consistency.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import TraceLevel, run_coupled, run_raes, run_saer
from repro.core.config import RunOptions
from repro.errors import GraphValidationError
from repro.graphs import BipartiteGraph, random_regular_bipartite, trust_subsets
from repro.rng import RandomTape
from repro.theory import alpha_for, gamma_products, gamma_sequence

# Keep examples small: the suite must stay fast, and the invariants are
# size-independent.
_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def graph_params(draw):
    n = draw(st.integers(min_value=8, max_value=48))
    degree = draw(st.integers(min_value=2, max_value=min(n, 10)))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    return n, degree, seed


@st.composite
def protocol_params(draw):
    c = draw(st.floats(min_value=1.0, max_value=8.0, allow_nan=False))
    d = draw(st.integers(min_value=1, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    return c, d, seed


class TestGraphProperties:
    @_settings
    @given(graph_params())
    def test_regular_generator_structure(self, params):
        n, degree, seed = params
        g = random_regular_bipartite(n, degree, seed=seed)
        assert np.all(g.client_degrees == degree)
        assert np.all(g.server_degrees == degree)
        g.validate()  # full CSR + cross-direction consistency

    @_settings
    @given(graph_params())
    def test_trust_generator_structure(self, params):
        n, degree, seed = params
        g = trust_subsets(n, n, degree, seed=seed)
        assert np.all(g.client_degrees == degree)
        assert int(g.server_degrees.sum()) == n * degree
        g.validate()

    @_settings
    @given(
        st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, 7)),
            min_size=0,
            max_size=40,
        ).flatmap(st.permutations)
    )
    def test_from_edges_roundtrip(self, edges):
        """Shuffled edge lists, duplicates allowed: a duplicate is
        rejected, and otherwise all four CSR arrays match a naive
        ``sorted()`` reference."""
        if len(set(edges)) < len(edges):
            with pytest.raises(GraphValidationError, match="duplicate"):
                BipartiteGraph.from_edges(8, 8, edges)
            return
        g = BipartiteGraph.from_edges(8, 8, edges)
        by_client = sorted(edges)
        by_server = sorted((u, v) for v, u in edges)
        assert g.client_indptr.tolist() == [sum(v < c for v, _ in edges) for c in range(9)]
        assert g.client_indices.tolist() == [u for _, u in by_client]
        assert g.server_indptr.tolist() == [sum(u < s for _, u in edges) for s in range(9)]
        assert g.server_indices.tolist() == [v for _, v in by_server]
        assert {a.dtype for a in (g.client_indptr, g.client_indices,
                                  g.server_indptr, g.server_indices)} == {np.dtype(np.int64)}
        g.validate()


class TestProtocolInvariants:
    @_settings
    @given(graph_params(), protocol_params())
    def test_saer_invariants(self, gparams, pparams):
        n, degree, gseed = gparams
        c, d, pseed = pparams
        g = random_regular_bipartite(n, degree, seed=gseed)
        res = run_saer(g, c, d, seed=pseed, options=RunOptions(max_rounds=80))
        cap = res.params.capacity
        # 1. load cap is unconditional
        assert res.max_load <= cap
        assert res.loads.max(initial=0) <= cap
        # 2. ball conservation
        assert res.assigned_balls + res.alive_balls == res.total_balls
        assert int(res.loads.sum()) == res.assigned_balls
        # 3. completion semantics
        if res.completed:
            assert res.alive_balls == 0
        # 4. work accounting: 2 messages per request, >= one round trip/ball
        assert res.work % 2 == 0
        assert res.work >= 2 * min(res.total_balls, res.assigned_balls)

    @_settings
    @given(graph_params(), protocol_params())
    def test_raes_invariants(self, gparams, pparams):
        n, degree, gseed = gparams
        c, d, pseed = pparams
        g = random_regular_bipartite(n, degree, seed=gseed)
        res = run_raes(g, c, d, seed=pseed, options=RunOptions(max_rounds=80))
        assert res.max_load <= res.params.capacity
        assert res.assigned_balls + res.alive_balls == res.total_balls

    @_settings
    @given(graph_params(), protocol_params())
    def test_burned_monotone_and_s_le_k(self, gparams, pparams):
        n, degree, gseed = gparams
        c, d, pseed = pparams
        g = random_regular_bipartite(n, degree, seed=gseed)
        res = run_saer(
            g, c, d, seed=pseed, options=RunOptions(max_rounds=60), trace=TraceLevel.FULL
        )
        blocked = np.asarray(res.trace.blocked_total)
        assert np.all(np.diff(blocked) >= 0)
        assert np.all(
            np.asarray(res.trace.s_t) <= np.asarray(res.trace.k_t) + 1e-9
        )

    @_settings
    @given(graph_params(), protocol_params())
    def test_tape_determinism(self, gparams, pparams):
        n, degree, gseed = gparams
        c, d, pseed = pparams
        g = random_regular_bipartite(n, degree, seed=gseed)
        tape = RandomTape(seed=pseed)
        a = run_saer(g, c, d, tape=tape, options=RunOptions(max_rounds=60))
        tape.rewind()
        b = run_saer(g, c, d, tape=tape, options=RunOptions(max_rounds=60))
        assert a.rounds == b.rounds and a.work == b.work
        assert np.array_equal(a.loads, b.loads)


class TestCouplingProperty:
    @_settings
    @given(graph_params(), protocol_params())
    def test_dominance_always(self, gparams, pparams):
        """Corollary 2's pathwise form: on ANY sampled graph and (c, d),
        the coupled RAES alive set is nested in SAER's, every round."""
        n, degree, gseed = gparams
        c, d, pseed = pparams
        g = random_regular_bipartite(n, degree, seed=gseed)
        cp = run_coupled(g, c, d, seed=pseed, options=RunOptions(max_rounds=60))
        assert cp.nested_every_round
        assert np.all(cp.alive_raes <= cp.alive_saer)


class TestRecurrenceProperties:
    @_settings
    @given(
        st.floats(min_value=8.0, max_value=256.0, allow_nan=False),
        st.integers(min_value=2, max_value=30),
    )
    def test_gamma_bounded_and_products_decay(self, c, t_max):
        alpha = alpha_for(c)
        gam = gamma_sequence(c, t_max)
        assert np.all(gam[1:] <= 1.0 / alpha + 1e-9)
        prods = gamma_products(c, t_max)
        # corrected Lemma-12 product bound (see recurrences docstring)
        for t in range(1, t_max + 1):
            assert prods[t] <= alpha ** (-(t - 1)) + 1e-9

    @_settings
    @given(st.floats(min_value=1.0, max_value=512.0, allow_nan=False))
    def test_gamma_limit_below_one_iff_decay(self, c):
        gam = gamma_sequence(c, 60)
        if c >= 8.0:
            # regime with α >= 2: sequence stays below 1/2
            assert gam[-1] <= 0.5 + 1e-9
        assert np.all(gam >= 0)
