"""Tests for the dynamic (online arrivals + churn) extension."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import available_kernels
from repro.dynamic import (
    BatchArrivals,
    PoissonArrivals,
    RewireChurn,
    run_dynamic_saer,
)
from repro.errors import ProtocolConfigError
from repro.graphs import trust_subsets


@pytest.fixture(scope="module")
def dyn_graph():
    return trust_subsets(128, 128, 12, seed=55)


class TestArrivalProcesses:
    def test_poisson_mean(self):
        rng = np.random.default_rng(0)
        proc = PoissonArrivals(rate_per_client=0.5)
        totals = [proc.sample(rng, 100, t).sum() for t in range(200)]
        assert abs(np.mean(totals) - 50.0) < 5.0
        assert proc.expected_per_round(100) == 50.0

    def test_poisson_zero_rate(self):
        rng = np.random.default_rng(0)
        assert PoissonArrivals(0.0).sample(rng, 10, 0).sum() == 0

    def test_poisson_negative_rejected(self):
        with pytest.raises(ValueError):
            PoissonArrivals(-0.1)

    def test_batch_period(self):
        rng = np.random.default_rng(0)
        proc = BatchArrivals(batch_size=30, period=3)
        assert proc.sample(rng, 10, 0).sum() == 30
        assert proc.sample(rng, 10, 1).sum() == 0
        assert proc.sample(rng, 10, 3).sum() == 30
        assert proc.expected_per_round(10) == 10.0

    def test_batch_validation(self):
        with pytest.raises(ValueError):
            BatchArrivals(-1)
        with pytest.raises(ValueError):
            BatchArrivals(1, period=0)


def _client_csr(graph, n_rows=None):
    """A writable int64 copy of the first ``n_rows`` client rows."""
    n = graph.n_clients if n_rows is None else n_rows
    indptr = np.array(graph.client_indptr[: n + 1], dtype=np.int64)
    return indptr, np.array(graph.client_indices[: indptr[-1]], dtype=np.int64)


def _rewire_lists(rate, rng, neighbor_lists, n_servers):
    """``RewireChurn.apply`` over a list of per-client arrays, kept as
    the oracle for the rows it rewrites in place in a CSR."""
    if rate == 0.0:
        return 0
    n_clients = len(neighbor_lists)
    flips = np.flatnonzero(rng.random(n_clients) < rate)
    for v in flips.tolist():
        k = neighbor_lists[v].size
        if k == 0 or k > n_servers:
            continue
        if k > n_servers // 8:
            fresh = rng.permutation(n_servers)[:k]
        else:
            fresh = np.unique(rng.integers(0, n_servers, size=int(k * 1.3) + 8))
            while fresh.size < k:
                fresh = np.unique(
                    np.concatenate([fresh, rng.integers(0, n_servers, size=k)])
                )
            if fresh.size > k:
                fresh = rng.choice(fresh, size=k, replace=False)
        neighbor_lists[v] = np.sort(fresh.astype(np.int64))
    return int(flips.size)


class TestChurn:
    def test_preserves_degrees(self, dyn_graph):
        rng = np.random.default_rng(1)
        indptr, indices = _client_csr(dyn_graph)
        before = indptr.copy()
        churn = RewireChurn(rate=1.0)
        churn.apply(rng, indptr, indices, dyn_graph.n_servers)
        assert np.array_equal(indptr, before)
        for v in range(dyn_graph.n_clients):
            row = indices[indptr[v] : indptr[v + 1]]
            assert np.all(np.diff(row) > 0)  # still sorted and distinct
            assert row.min() >= 0 and row.max() < dyn_graph.n_servers

    def test_zero_rate_no_op(self, dyn_graph):
        rng = np.random.default_rng(2)
        indptr, indices = _client_csr(dyn_graph, 8)
        before = indices.copy()
        assert RewireChurn(0.0).apply(rng, indptr, indices, dyn_graph.n_servers) == 0
        assert np.array_equal(indices, before)

    def test_rate_one_rewires_all(self, dyn_graph):
        rng = np.random.default_rng(3)
        indptr, indices = _client_csr(dyn_graph, 16)
        assert RewireChurn(1.0).apply(rng, indptr, indices, dyn_graph.n_servers) == 16

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            RewireChurn(1.5)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_list_oracle(self, data):
        """The in-place CSR rewrite gives the list-based churn's rows,
        return value and Generator state, over rows of degree 0, rows on
        the permutation branch (k > n_servers // 8) and a full row."""
        n_s = data.draw(st.integers(min_value=1, max_value=64), label="n_servers")
        drawn = data.draw(st.lists(st.integers(0, n_s), max_size=12), label="degrees")
        degrees = data.draw(st.permutations(drawn + [0, n_s // 8 + 1, n_s]), label="order")
        rate = data.draw(
            st.sampled_from([0.0, 0.25, 1.0]) | st.floats(0.0, 1.0), label="rate"
        )
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        pick = np.random.default_rng(seed)
        lists = [np.sort(pick.choice(n_s, k, replace=False)) for k in degrees]
        indptr = np.zeros(len(lists) + 1, dtype=np.int64)
        np.cumsum([r.size for r in lists], out=indptr[1:])
        indices = np.concatenate(lists).astype(np.int64)
        before = indptr.copy()
        churn = RewireChurn(rate)
        ours, theirs = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        for _ in range(data.draw(st.integers(1, 3), label="rounds")):
            got = churn.apply(ours, indptr, indices, n_s)
            assert got == _rewire_lists(rate, theirs, lists, n_s)
            assert np.array_equal(indptr, before)
            assert np.array_equal(indices, np.concatenate(lists))
            assert ours.bit_generator.state == theirs.bit_generator.state


class TestDynamicSimulator:
    def test_zero_arrivals_stays_empty(self, dyn_graph):
        res = run_dynamic_saer(dyn_graph, 2.0, 4, PoissonArrivals(0.0), horizon=20, seed=0)
        assert res.backlog.max() == 0
        assert res.latencies.size == 0
        assert res.is_metastable()

    def test_subcritical_is_metastable(self, dyn_graph):
        res = run_dynamic_saer(
            dyn_graph, 2.0, 4, PoissonArrivals(0.1), horizon=300, recovery=8, seed=1
        )
        assert res.is_metastable()
        assert res.backlog[-1] < 5 * res.offered_load

    def test_no_recovery_diverges_under_sustained_load(self, dyn_graph):
        """Without recovery every server eventually burns; backlog must
        grow linearly — the E12 control row."""
        res = run_dynamic_saer(
            dyn_graph, 2.0, 4, PoissonArrivals(0.5), horizon=300, recovery=None, seed=2
        )
        assert not res.is_metastable()
        assert res.burned_fraction[-1] == 1.0
        assert res.backlog[-1] > res.backlog[res.horizon // 2]

    def test_supercritical_diverges_even_with_recovery(self, dyn_graph):
        res = run_dynamic_saer(
            dyn_graph, 2.0, 4, PoissonArrivals(3.0), horizon=200, recovery=8, seed=3
        )
        assert not res.is_metastable()

    def test_latencies_recorded_and_nonnegative(self, dyn_graph):
        res = run_dynamic_saer(
            dyn_graph, 2.0, 4, PoissonArrivals(0.2), horizon=100, recovery=8, seed=4
        )
        assert res.latencies.size > 0
        assert res.latencies.min() >= 0
        stats = res.latency_stats()
        assert stats["p50"] <= stats["p95"]

    def test_churn_runs(self, dyn_graph):
        res = run_dynamic_saer(
            dyn_graph,
            2.0,
            4,
            PoissonArrivals(0.2),
            horizon=100,
            churn=RewireChurn(0.1),
            recovery=8,
            seed=5,
        )
        assert res.rewired_clients.sum() > 0
        assert res.is_metastable()

    def test_burst_arrivals_absorbed(self, dyn_graph):
        res = run_dynamic_saer(
            dyn_graph,
            2.0,
            4,
            BatchArrivals(batch_size=64, period=10),
            horizon=200,
            recovery=8,
            seed=6,
        )
        assert res.is_metastable()

    def test_summary_keys(self, dyn_graph):
        res = run_dynamic_saer(dyn_graph, 2.0, 4, PoissonArrivals(0.1), horizon=50, seed=7)
        s = res.summary()
        for k in ("final_backlog", "backlog_slope", "metastable", "latency_mean"):
            assert k in s

    def test_validation(self, dyn_graph):
        with pytest.raises(ProtocolConfigError):
            run_dynamic_saer(dyn_graph, 2.0, 4, PoissonArrivals(0.1), horizon=0)
        with pytest.raises(ProtocolConfigError):
            run_dynamic_saer(dyn_graph, 2.0, 4, PoissonArrivals(0.1), horizon=10, recovery=0)

    def test_deterministic_for_seed(self, dyn_graph):
        a = run_dynamic_saer(dyn_graph, 2.0, 4, PoissonArrivals(0.2), horizon=60, seed=8)
        b = run_dynamic_saer(dyn_graph, 2.0, 4, PoissonArrivals(0.2), horizon=60, seed=8)
        assert np.array_equal(a.backlog, b.backlog)
        assert np.array_equal(a.latencies, b.latencies)


# ---------------------------------------------------------------------------
# Golden bit-identity: the ServingState refactor vs the pre-refactor
# monolithic simulator (series captured at PR 5, before the serve layer).
# ---------------------------------------------------------------------------

_GOLDEN_PATH = Path(__file__).parent / "data" / "dynamic_golden.json"
with open(_GOLDEN_PATH) as _fh:
    _GOLDEN = json.load(_fh)


def _golden_arrivals(spec):
    kind = spec[0]
    if kind == "poisson":
        return PoissonArrivals(spec[1])
    if kind == "batch":
        return BatchArrivals(spec[1], spec[2])
    raise ValueError(f"unknown golden arrival spec {spec!r}")


class TestGoldenBitIdentity:
    """Every series of every golden case must match exactly — same RNG
    stream, same order, same integers — under every kernel gate.  The
    E12 control rows (``e12_*``) are among the cases, so the plan
    goldens cannot move either."""

    @pytest.mark.parametrize("kernel", available_kernels())
    @pytest.mark.parametrize("name", sorted(_GOLDEN))
    def test_bit_identical_to_pre_refactor(self, name, kernel):
        case = _GOLDEN[name]
        cfg = case["config"]
        # config.k is null for cases that used the canonical degree; the
        # resolved value is recorded at the case's top level either way.
        graph = trust_subsets(cfg["n"], cfg["n"], case["k"], seed=cfg["seed_graph"])
        res = run_dynamic_saer(
            graph,
            cfg["c"],
            cfg["d"],
            _golden_arrivals(cfg["arrivals"]),
            cfg["horizon"],
            churn=RewireChurn(cfg["churn"]) if cfg["churn"] else None,
            recovery=cfg["recovery"],
            seed=cfg["seed"],
            kernel=kernel,
        )
        for series in (
            "backlog",
            "arrivals",
            "assigned",
            "rewired_clients",
            "latencies",
        ):
            got = getattr(res, series if series != "arrivals" else "arrivals")
            assert got.tolist() == case[series], f"{name}: {series} diverged"
        assert res.burned_fraction.tolist() == pytest.approx(case["burned_fraction"])
        assert res.dropped == case["dropped"]
        assert res.offered_load == pytest.approx(case["offered_load"])


class TestSummaryConsistency:
    """The summary() normalization satellite: uniform quantile rounding
    and well-defined horizon=1 / empty-series corners."""

    def test_latency_quantiles_all_rounded(self, dyn_graph):
        res = run_dynamic_saer(
            dyn_graph, 2.0, 4, PoissonArrivals(0.3), horizon=80, recovery=8, seed=21
        )
        s = res.summary()
        for key in ("latency_mean", "latency_p50", "latency_p95", "latency_p99"):
            assert s[key] == round(s[key], 3), key
        assert s["latency_p50"] <= s["latency_p95"] <= s["latency_p99"]

    def test_horizon_one_consistent(self, dyn_graph):
        res = run_dynamic_saer(
            dyn_graph, 2.0, 4, BatchArrivals(32, 1), horizon=1, recovery=8, seed=22
        )
        s = res.summary()
        # With a single recorded round, "final" and "2nd half mean"
        # describe the same number.
        assert s["horizon"] == 1
        assert s["mean_backlog_2nd_half"] == float(s["final_backlog"])
        assert s["backlog_slope"] == 0.0
        assert isinstance(s["metastable"], bool)

    def test_empty_latencies_are_nan_not_crash(self, dyn_graph):
        res = run_dynamic_saer(
            dyn_graph, 2.0, 4, PoissonArrivals(0.0), horizon=3, seed=23
        )
        s = res.summary()
        assert math.isnan(s["latency_mean"])
        assert math.isnan(s["latency_p95"])
        assert s["final_backlog"] == 0
        assert s["mean_backlog_2nd_half"] == 0.0

    def test_second_half_window_is_shared(self, dyn_graph):
        res = run_dynamic_saer(
            dyn_graph, 2.0, 4, PoissonArrivals(0.4), horizon=9, recovery=8, seed=24
        )
        half = res.backlog[res.horizon // 2 :]
        assert res.summary()["mean_backlog_2nd_half"] == pytest.approx(half.mean())
