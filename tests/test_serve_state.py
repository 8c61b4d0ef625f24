"""Tests for repro.serve.state — the shared round-step state machine."""

import numpy as np
import pytest

from repro.batch import available_kernels
from repro.errors import ProtocolConfigError
from repro.graphs import BipartiteGraph, random_regular_bipartite, trust_subsets
from repro.serve import RoundOutcome, ServingState


@pytest.fixture(scope="module")
def graph():
    return trust_subsets(96, 96, 10, seed=17)


def _isolated_graph():
    """Clients 0..2 wired to servers; client 3 has no servers at all."""
    edges = [(c, s) for c in range(3) for s in range(4)]
    return BipartiteGraph.from_edges(4, 4, edges)


def _stall(st: ServingState) -> None:
    """Burn every server (maintaining the burned == over-capacity
    invariant); with recovery disabled nothing ever assigns again."""
    st.cum_received[:] = st.capacity + 1
    st.burned[:] = True


class TestLifecycle:
    def test_initial_state(self, graph):
        st = ServingState(graph, 2.0, 4, seed=0)
        assert st.backlog == 0
        assert st.burned_count == 0
        assert st.round_no == 0
        assert st.dropped == 0
        assert st.capacity == 8

    def test_recovery_validation(self, graph):
        with pytest.raises(ProtocolConfigError):
            ServingState(graph, 2.0, 4, recovery=0)

    def test_empty_round_consumes_no_randomness(self, graph):
        """An empty round must skip the uniform draw — that is the
        stream contract the simulator goldens pin."""
        a = ServingState(graph, 2.0, 4, seed=42)
        b = ServingState(graph, 2.0, 4, seed=42)
        for _ in range(5):
            a.round_begin()
            a.route()
        # b draws nothing either way; streams must still be aligned.
        assert a.rng.random() == b.rng.random()

    def test_route_returns_outcome(self, graph):
        st = ServingState(graph, 2.0, 4, seed=1)
        st.round_begin()
        st.admit_counts(np.ones(graph.n_clients, dtype=np.int64))
        out = st.route()
        assert isinstance(out, RoundOutcome)
        assert out.round_no == 0
        assert out.assigned + out.backlog == graph.n_clients
        assert out.latencies.size == out.assigned
        assert out.assigned_servers.size == out.assigned
        assert out.assigned_tags is None  # tags off by default


class TestAdmission:
    def test_admit_counts_drops_isolated(self):
        st = ServingState(_isolated_graph(), 2.0, 4, seed=0)
        counts = np.array([1, 1, 1, 5], dtype=np.int64)
        admitted = st.admit_counts(counts)
        assert admitted == 3
        assert st.dropped == 5
        assert st.backlog == 3

    def test_admit_balls_returns_dropped_tags(self):
        st = ServingState(_isolated_graph(), 2.0, 4, seed=0, track_tags=True)
        owners = np.array([0, 3, 1, 3], dtype=np.int64)
        tags = np.array([10, 11, 12, 13], dtype=np.int64)
        admitted, dropped_tags = st.admit_balls(owners, tags)
        assert admitted == 2
        assert sorted(dropped_tags.tolist()) == [11, 13]
        assert st.dropped == 2

    def test_admit_balls_range_validation(self, graph):
        st = ServingState(graph, 2.0, 4, seed=0)
        with pytest.raises(ValueError):
            st.admit_balls(np.array([graph.n_clients], dtype=np.int64))
        with pytest.raises(ValueError):
            st.admit_balls(np.array([-1], dtype=np.int64))

    def test_buffer_growth_beyond_initial_capacity(self, graph):
        st = ServingState(graph, 2.0, 4, seed=0, track_tags=True)
        _stall(st)  # nothing assigns, so the whole batch must survive
        n = 5000  # > the 1024 starting capacity
        owners = np.zeros(n, dtype=np.int64)
        tags = np.arange(n, dtype=np.int64)
        st.admit_balls(owners, tags)
        assert st.backlog == n
        st.round_begin()
        out = st.route()
        assert out.assigned == 0
        assert st.backlog == n

    def test_tags_follow_balls_through_compaction(self, graph):
        st = ServingState(graph, 2.0, 4, seed=3, track_tags=True)
        owners = np.arange(graph.n_clients, dtype=np.int64)
        tags = owners * 100
        st.admit_balls(owners, tags)
        st.round_begin()
        out = st.route()
        # every assigned tag identifies its owner by construction
        assert np.array_equal(out.assigned_tags // 100 * 100, out.assigned_tags)


class TestRecoveryAndChurn:
    def test_burn_and_heal(self, graph):
        st = ServingState(graph, 1.0, 2, recovery=3, seed=5)  # capacity 2
        for _ in range(4):
            st.round_begin()
            st.admit_counts(np.full(graph.n_clients, 3, dtype=np.int64))
            st.route()
        assert st.burned_count > 0
        # Shed the backlog (it would re-burn healed servers every round),
        # then recovery must eventually heal everything.
        st.evict_overdue(1)
        assert st.backlog == 0
        for _ in range(10):
            st.round_begin()
            st.route()
        assert st.burned_count == 0
        # Healed servers reset their counters: none can still be over.
        assert st.cum_received.max() <= st.capacity

    def test_burned_matches_over_capacity_invariant(self, graph):
        """burned == (cum_received > capacity) at every round — the
        invariant the kernel path's accept rule relies on."""
        st = ServingState(graph, 1.5, 4, recovery=4, seed=6)
        rng = np.random.default_rng(0)
        for _ in range(20):
            st.round_begin()
            st.admit_counts(rng.poisson(0.8, graph.n_clients).astype(np.int64))
            st.route()
            assert np.array_equal(st.burned, st.cum_received > st.capacity)


class TestEviction:
    def test_evict_overdue(self, graph):
        st = ServingState(graph, 2.0, 4, seed=7, track_tags=True)
        _stall(st)
        st.admit_balls(np.zeros(4, dtype=np.int64), np.array([1, 2, 3, 4], dtype=np.int64))
        for _ in range(3):
            st.round_begin()
            st.route()
        owners, tags = st.evict_overdue(3)
        assert owners.tolist() == [0, 0, 0, 0]
        assert sorted(tags.tolist()) == [1, 2, 3, 4]
        assert st.backlog == 0

    def test_evict_keeps_young_balls(self, graph):
        st = ServingState(graph, 2.0, 4, seed=8, track_tags=True)
        _stall(st)
        st.admit_balls(np.zeros(2, dtype=np.int64), np.array([1, 2], dtype=np.int64))
        st.round_begin()
        st.route()
        st.admit_balls(np.zeros(1, dtype=np.int64), np.array([3], dtype=np.int64))
        _owners, tags = st.evict_overdue(1)
        assert sorted(tags.tolist()) == [1, 2]  # the young ball (tag 3) stays
        assert st.backlog == 1

    def test_evict_validation(self, graph):
        st = ServingState(graph, 2.0, 4, seed=9)
        with pytest.raises(ValueError):
            st.evict_overdue(0)


_OUTCOME_ARRAYS = (
    "latencies", "assigned_servers", "assigned_tags", "received", "accepted_counts"
)


def _outcome_arrays(out: RoundOutcome) -> dict:
    return {
        name: None if getattr(out, name) is None else getattr(out, name).copy()
        for name in _OUTCOME_ARRAYS
    }


def _assert_same_arrays(got: dict, want: dict) -> None:
    for name, arr in want.items():
        if arr is None:
            assert got[name] is None, name
        else:
            assert got[name].dtype == np.int64, name
            assert np.array_equal(got[name], arr), name


class TestKernelParity:
    """Every kernel gate must produce identical assignments from an
    identical seed — the same exact-stream contract the batched engine
    pins, extended to the serving round.  ``cext`` routes through its
    compiled serving round."""

    @pytest.mark.parametrize("kernel", [k for k in available_kernels() if k != "numpy"])
    def test_kernel_matches_numpy_stream(self, graph, kernel):
        ref = ServingState(
            graph, 1.5, 4, recovery=5, seed=123, kernel="numpy", track_tags=True
        )
        alt = ServingState(graph, 1.5, 4, recovery=5, seed=123, kernel=kernel, track_tags=True)
        assert alt.kernel_name == kernel
        rng = np.random.default_rng(99)
        for _ in range(15):
            arr = rng.poisson(0.6, graph.n_clients).astype(np.int64)
            for st in (ref, alt):
                st.round_begin()
                st.admit_counts(arr)
            a, b = ref.route(), alt.route()
            assert a.assigned == b.assigned
            assert np.array_equal(a.assigned_servers, b.assigned_servers)
            assert np.array_equal(a.latencies, b.latencies)
            assert np.array_equal(ref.burned, alt.burned)
            assert np.array_equal(ref.cum_received, alt.cum_received)

    @pytest.mark.parametrize("kernel", [k for k in available_kernels() if k != "numpy"])
    def test_kernel_parity_under_churn(self, graph, kernel):
        from repro.dynamic import RewireChurn

        ref = ServingState(
            graph, 2.0, 4, recovery=6, churn=RewireChurn(0.2), seed=321, kernel="numpy"
        )
        alt = ServingState(
            graph, 2.0, 4, recovery=6, churn=RewireChurn(0.2), seed=321, kernel=kernel
        )
        rng = np.random.default_rng(5)
        for _ in range(12):
            arr = rng.poisson(0.5, graph.n_clients).astype(np.int64)
            for st in (ref, alt):
                st.round_begin()
                st.admit_counts(arr)
            a, b = ref.route(), alt.route()
            assert a.assigned == b.assigned
            assert np.array_equal(a.assigned_servers, b.assigned_servers)
            # Churn draws from the same Generator the route steps.
            assert alt.rng.bit_generator.state == ref.rng.bit_generator.state

    @pytest.mark.parametrize("kernel", [k for k in available_kernels() if k != "numpy"])
    @pytest.mark.parametrize("family", ["regular", "trust"])
    def test_round_outcome_state_and_stream(self, family, kernel):
        """With tags and health counts on, every RoundOutcome field, the
        server state, the survivors and the Generator's position match
        the numpy route after every round; and an outcome stays as it
        was returned while later rounds run."""
        if family == "regular":
            g = random_regular_bipartite(128, 6, seed=4)
        else:
            g = trust_subsets(128, 128, 10, seed=3)
        ref = ServingState(g, 1.5, 4, recovery=4, seed=77, kernel="numpy", track_tags=True)
        alt = ServingState(g, 1.5, 4, recovery=4, seed=77, kernel=kernel, track_tags=True)
        assert (alt._serve_fn is not None) == (kernel == "cext")
        ref.track_health = alt.track_health = True
        rng = np.random.default_rng(8)
        history = []
        next_tag = 0
        for _ in range(20):
            owners = np.repeat(np.arange(g.n_clients), rng.poisson(0.7, g.n_clients))
            tags = np.arange(next_tag, next_tag + owners.size, dtype=np.int64)
            next_tag += owners.size
            for st in (ref, alt):
                st.round_begin()
                st.admit_balls(owners, tags)
            a, b = ref.route(), alt.route()
            assert alt.rng.bit_generator.state == ref.rng.bit_generator.state
            assert (a.round_no, a.assigned, a.backlog, a.burned) == (
                b.round_no, b.assigned, b.backlog, b.burned
            )
            assert a.burned_fraction == b.burned_fraction
            assert b.received is not None and b.accepted_counts is not None
            _assert_same_arrays(_outcome_arrays(b), _outcome_arrays(a))
            assert np.array_equal(ref.cum_received, alt.cum_received)
            assert np.array_equal(ref.burned, alt.burned)
            assert np.array_equal(ref.burn_clock, alt.burn_clock)
            assert np.array_equal(ref.alive_tags, alt.alive_tags)
            assert np.array_equal(ref._births[: ref.n_alive], alt._births[: alt.n_alive])
            history.append((b, _outcome_arrays(b)))
        assert sum(out.assigned for out, _ in history) > 0
        for out, snap in history:
            _assert_same_arrays(_outcome_arrays(out), snap)

    @pytest.mark.parametrize("kernel", [k for k in available_kernels() if k != "numpy"])
    def test_non_pcg64_generator_takes_numpy_route(self, graph, kernel):
        """A Generator over another bit generator has no compiled draws:
        every gate routes it exactly like the numpy gate."""

        def make(k):
            rng = np.random.Generator(np.random.MT19937(42))
            return ServingState(graph, 1.5, 4, recovery=5, seed=rng, kernel=k, track_tags=True)

        ref, alt = make("numpy"), make(kernel)
        rng = np.random.default_rng(3)
        for _ in range(10):
            arr = rng.poisson(0.6, graph.n_clients).astype(np.int64)
            for st in (ref, alt):
                st.round_begin()
                st.admit_counts(arr)
            a, b = ref.route(), alt.route()
            assert a.assigned == b.assigned
            assert np.array_equal(a.assigned_servers, b.assigned_servers)
            assert np.array_equal(a.latencies, b.latencies)
            assert np.array_equal(ref.cum_received, alt.cum_received)
        assert np.array_equal(ref.rng.random(4), alt.rng.random(4))
