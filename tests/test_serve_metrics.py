"""Tests for repro.serve.metrics — the serving layer's metric registry."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.serve import Counter, Gauge, Histogram, MetricsRegistry

BOUNDS = (-1.0, 0.0, 0.5, 1.0, 2.0, 4.0, 1e6)


def _same_float(a, b) -> bool:
    """Bit for bit: equal value and sign, so 0.0 and -0.0 differ."""
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def _on_the_bounds(draw_floats):
    # Values exactly on a bound, both zeros, the non-finite ones, and
    # anything else; bounds are where bisect_left and searchsorted
    # could disagree.
    special = st.sampled_from(
        [*BOUNDS, -0.0, math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324]
    )
    return st.one_of(special, draw_floats)


class TestCounter:
    def test_monotone(self):
        c = Counter("reqs")
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_render(self):
        c = Counter("reqs")
        c.inc(3)
        assert c.render() == ["reqs 3"]


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("backlog")
        g.set(10)
        g.inc(5)
        g.dec(2)
        assert g.value == 13
        assert g.snapshot() == 13


class TestHistogram:
    def test_bucket_placement(self):
        h = Histogram("lat", buckets=(1, 2, 4))
        for v in (0, 1, 1.5, 3, 100):
            h.observe(v)
        # cumulative: ≤1 → 2 (0 and 1), ≤2 → 3, ≤4 → 4, +Inf → 5
        assert h.counts == [2, 1, 1, 1]
        assert h.total == 5
        assert h.sum == pytest.approx(105.5)
        assert h.min == 0 and h.max == 100

    def test_quantiles_interpolated(self):
        h = Histogram("lat", buckets=(0, 1, 2, 4, 8))
        h.observe_many([1] * 50 + [3] * 50)
        assert h.quantile(0.5) == pytest.approx(1.0)
        # p95 lands inside the (2, 4] bucket; interpolation stays in it
        assert 2.0 <= h.quantile(0.95) <= 4.0
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_quantile_inf_bucket_clamps_to_max(self):
        h = Histogram("lat", buckets=(1,))
        h.observe_many([10, 20, 30])
        assert h.quantile(0.99) == 30

    def test_empty_is_nan(self):
        h = Histogram("lat")
        assert math.isnan(h.quantile(0.5))
        assert math.isnan(h.mean)

    def test_render_cumulative_and_count(self):
        h = Histogram("lat", buckets=(1, 2))
        h.observe_many([0.5, 1.5, 5])
        lines = h.render()
        assert 'lat_bucket{le="1"} 1' in lines
        assert 'lat_bucket{le="2"} 2' in lines
        assert 'lat_bucket{le="+Inf"} 3' in lines
        assert "lat_count 3" in lines

    def test_needs_buckets(self):
        with pytest.raises(ValueError):
            Histogram("lat", buckets=())


class TestRegistry:
    def test_idempotent_accessors(self):
        reg = MetricsRegistry()
        a = reg.counter("x", "help text")
        b = reg.counter("x")
        assert a is b
        assert "x" in reg
        assert reg.get("x") is a

    def test_kind_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")

    def test_render_text_exposition(self):
        reg = MetricsRegistry()
        reg.counter("reqs", "requests served").inc(7)
        reg.gauge("backlog").set(3)
        text = reg.render_text()
        assert "# HELP reqs requests served" in text
        assert "# TYPE reqs counter" in text
        assert "reqs 7" in text
        assert "# TYPE backlog gauge" in text
        assert text.endswith("\n")

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        h = reg.histogram("h", buckets=(1, 10))
        h.observe_many([0.5, 5, 50])
        snap = reg.snapshot()
        assert snap["c"] == 2
        assert snap["h"]["count"] == 3
        assert {"p50", "p95", "p99", "mean", "min", "max"} <= set(snap["h"])

    def test_snapshot_hooks_fire(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        seen = []
        reg.add_snapshot_hook(seen.append)
        out = reg.fire_snapshot_hooks()
        assert seen == [out]
        assert out["c"] == 1


class TestNdjsonSnapshotHook:
    def test_spools_one_record_per_snapshot(self, tmp_path):
        import json

        from repro.serve.metrics import ndjson_snapshot_hook

        reg = MetricsRegistry()
        c = reg.counter("c")
        path = tmp_path / "snaps.ndjson"
        ticks = iter(range(100))
        reg.add_snapshot_hook(
            ndjson_snapshot_hook(str(path), clock=lambda: float(next(ticks)))
        )
        for _ in range(3):
            c.inc()
            reg.fire_snapshot_hooks()
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        records = [json.loads(line) for line in lines]
        assert [r["seq"] for r in records] == [0, 1, 2]
        assert [r["time"] for r in records] == [0.0, 1.0, 2.0]
        assert [r["metrics"]["c"] for r in records] == [1, 2, 3]

    def test_appends_across_hook_instances(self, tmp_path):
        from repro.serve.metrics import ndjson_snapshot_hook

        reg = MetricsRegistry()
        reg.counter("c")
        path = tmp_path / "snaps.ndjson"
        for _ in range(2):  # a restarted service reuses the same spool
            hook = ndjson_snapshot_hook(str(path), clock=lambda: 0.0)
            hook(reg.snapshot())
        assert len(path.read_text().splitlines()) == 2

class TestQuantileBoundaries:
    def test_q0_returns_min_not_bucket_bound(self):
        # Regression: rank 0 used to fall through to the first bucket's
        # upper bound (bounds[0]) instead of the observed minimum.
        h = Histogram("lat", buckets=(10, 20))
        h.observe_many([3, 15, 18])
        assert h.quantile(0.0) == 3
        assert h.quantile(1.0) == 18

    def test_boundaries_with_empty_leading_bucket(self):
        h = Histogram("lat", buckets=(1, 2, 4))
        h.observe_many([1.5, 3.0])  # nothing lands in the (≤1) bucket
        assert h.quantile(0.0) == 1.5
        assert h.quantile(1.0) == 3.0

    def test_boundaries_empty_histogram_still_nan(self):
        h = Histogram("lat")
        assert math.isnan(h.quantile(0.0))
        assert math.isnan(h.quantile(1.0))


class TestNonfiniteObservations:
    def test_nan_and_inf_do_not_poison_buckets(self):
        h = Histogram("lat", buckets=(1, 2))
        h.observe_many([0.5, float("nan"), float("inf"), float("-inf")])
        assert h.counts == [1, 0, 0]
        assert h.total == 1
        assert h.sum == pytest.approx(0.5)
        assert h.nonfinite == 3
        assert h.mean == pytest.approx(0.5)

    def test_nonfinite_rendered_only_when_present(self):
        h = Histogram("lat", buckets=(1,))
        h.observe(0.5)
        assert not any("nonfinite" in line for line in h.render())
        h.observe(float("nan"))
        assert "lat_nonfinite 1" in h.render()
        snap = h.snapshot()
        assert snap["nonfinite"] == 1
        assert math.isfinite(snap["mean"])


class TestObserveManyMatchesObserve:
    """``observe_many`` is the loop over ``observe``, bit for bit."""

    @staticmethod
    def _check(values, prior=()):
        looped = Histogram("x", buckets=BOUNDS)
        batched = Histogram("x", buckets=BOUNDS)
        for v in prior:  # the same starting state, reached one value at a time
            looped.observe(float(v))
            batched.observe(float(v))
        for v in values:
            looped.observe(float(v))
        batched.observe_many(values)
        assert batched.counts == looped.counts
        assert batched.total == looped.total
        assert batched.nonfinite == looped.nonfinite
        for field in ("sum", "min", "max"):
            assert _same_float(getattr(batched, field), getattr(looped, field)), field

    @settings(max_examples=300, deadline=None)
    @given(
        values=hnp.arrays(
            np.float64,
            st.integers(0, 60),
            elements=_on_the_bounds(st.floats(allow_nan=True, allow_infinity=True)),
        ),
        prior=st.lists(_on_the_bounds(st.floats(-1e3, 1e3)), max_size=4),
    )
    def test_float_arrays(self, values, prior):
        self._check(values, prior)

    @settings(max_examples=200, deadline=None)
    @given(
        values=hnp.arrays(
            np.int64, st.integers(0, 60),
            elements=st.integers(-(2**62), 2**62) | st.sampled_from([-1, 0, 1, 2, 4]),
        ),
        prior=st.lists(st.integers(-5, 5), max_size=4),
    )
    def test_int_arrays(self, values, prior):
        self._check(values, prior)

    def test_first_seen_zero_wins(self):
        # np.min([0.0, -0.0]) is -0.0; the loop keeps the 0.0 it saw first.
        self._check(np.array([0.0, -0.0, 0.0]))
        self._check(np.array([-0.0, 0.0]))
        h = Histogram("x", buckets=BOUNDS)
        h.observe_many(np.array([0.0, -0.0]))
        assert _same_float(h.min, 0.0) and _same_float(h.max, 0.0)

    def test_lists_and_generators(self):
        self._check([3, 0.5, float("nan")])
        looped = Histogram("x", buckets=BOUNDS)
        for v in (1, 2, 3):
            looped.observe(float(v))
        batched = Histogram("x", buckets=BOUNDS)
        batched.observe_many(v for v in (1, 2, 3))
        assert batched.state_dict() == looped.state_dict()
