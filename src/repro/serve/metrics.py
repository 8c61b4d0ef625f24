"""Counter/gauge/histogram registry for the serving layer.

Prometheus-style in spirit, stdlib plus numpy in practice: the service
increments plain Python ints/floats (the whole serving layer runs on
one asyncio event loop, so updates need no locks — "lock-free" by
construction, not by atomics), histograms take a round's worth of
values in one :meth:`Histogram.observe_many` call, and three read paths
exist:

``render_text()``
    The text exposition format (``# HELP`` / ``# TYPE`` + samples,
    histograms as cumulative ``_bucket{le=...}`` lines) served by the
    TCP front end's ``metrics`` op — scrape-compatible enough for
    eyeballs and for tests.
``snapshot()``
    A plain nested dict (counters, gauges, histogram quantiles), fed to
    registered snapshot hooks every ``snapshot_every`` rounds by the
    service and embedded in load-generator reports.
``state_dict()``
    The full serializable state of every metric — unlike ``snapshot()``
    it keeps a histogram's raw bucket counts, so two histograms compare
    exactly (the serving golden pins latencies this way).

Histograms use fixed bucket upper bounds chosen at registration;
quantiles come from linear interpolation within the bucket that crosses
the target rank — the standard Prometheus ``histogram_quantile``
estimate, which is exact at bucket edges and never off by more than a
bucket width in between.  The boundary ranks are exact: ``quantile(0)``
is the observed minimum and ``quantile(1)`` the observed maximum.
Non-finite observations (NaN/±inf) are counted in a separate
``nonfinite`` ledger and never touch the buckets or ``sum`` — a single
poisoned sample cannot make ``mean`` or the rendered exposition
non-finite.
"""

from __future__ import annotations

import json
import math
import time
from bisect import bisect_left
from typing import Callable, Iterable

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ndjson_snapshot_hook",
]

#: Default latency-style buckets (rounds or seconds — callers choose units).
DEFAULT_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0,
)

# Every integer of magnitude below this is a float64 (2**53).
_EXACT_INT_SUM = 1 << 53


class Counter:
    """Monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value: int | float = 0

    def inc(self, n: int | float = 1) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {n})")
        self.value += n

    def render(self) -> list[str]:
        return [f"{self.name} {self.value}"]

    def snapshot(self):
        return self.value

    def state_dict(self) -> dict:
        return {"kind": self.kind, "help": self.help, "value": self.value}


class Gauge:
    """A value that goes up and down (backlog, burned fraction, …)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value: float = 0.0

    def set(self, v: float) -> None:
        self.value = v

    def inc(self, n: float = 1) -> None:
        self.value += n

    def dec(self, n: float = 1) -> None:
        self.value -= n

    def render(self) -> list[str]:
        return [f"{self.name} {self.value}"]

    def snapshot(self):
        return self.value

    def state_dict(self) -> dict:
        return {"kind": self.kind, "help": self.help, "value": self.value}


class Histogram:
    """Fixed-bucket histogram with sum/count and interpolated quantiles."""

    kind = "histogram"

    def __init__(
        self, name: str, help: str = "", buckets: Iterable[float] = DEFAULT_BUCKETS
    ) -> None:
        self.name = name
        self.help = help
        self.bounds = tuple(sorted(float(b) for b in buckets))
        if not self.bounds:
            raise ValueError(f"histogram {name} needs at least one bucket bound")
        self._bounds = np.array(self.bounds)
        # counts[i] pairs with bounds[i]; counts[-1] is the +Inf bucket.
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        # NaN/±inf observations: counted here, never in the buckets —
        # bisect on NaN (all comparisons False) would file it in bucket
        # 0 and one `sum += nan` poisons mean/sum forever.
        self.nonfinite = 0

    def observe(self, v: float) -> None:
        if not math.isfinite(v):
            self.nonfinite += 1
            return
        self.counts[bisect_left(self.bounds, v)] += 1
        self.total += 1
        self.sum += v
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v

    def observe_many(self, values) -> None:
        """:meth:`observe` every value in order, in a few array passes.

        Bit-identical to the loop.  An integer or bool ndarray whose
        values all lie in ``[0, len(values))`` is counted per value with
        one ``bincount`` (a table no longer than the array) when the
        prior ``sum`` is integral and ``|sum| + len(values) *
        max(values) < 2**53``: every running sum of the loop is then an
        integer that float64 holds exactly, so adding the exact integer
        total at once gives the loop's bits.  Any other input takes the
        float path: buckets by ``searchsorted`` (the same
        ``bisect_left`` rule), ``sum`` by a sequential running sum
        (``np.add.accumulate``, not numpy's pairwise ``sum``), and
        ``min``/``max`` keep the first-seen extreme, so ``0.0`` seen
        before ``-0.0`` stays ``0.0``.
        """
        if (
            isinstance(values, np.ndarray)
            and values.dtype.kind in "biu"
            and self._observe_counts(np.asarray(values).ravel())
        ):
            return
        if not hasattr(values, "__len__"):
            values = list(values)
        v = np.asarray(values, dtype=np.float64).ravel()
        finite = np.isfinite(v)
        n_finite = int(np.count_nonzero(finite))
        self.nonfinite += v.size - n_finite
        if not n_finite:
            return
        if n_finite < v.size:
            v = v[finite]
        added = np.bincount(
            np.searchsorted(self._bounds, v, side="left"), minlength=len(self.counts)
        )
        for i in np.flatnonzero(added).tolist():
            self.counts[i] += int(added[i])
        self.total += n_finite
        running = np.empty(n_finite + 1, dtype=np.float64)
        running[0] = self.sum
        running[1:] = v
        with np.errstate(over="ignore"):  # overflows to inf, like float +=
            self.sum = float(np.add.accumulate(running)[-1])
        lo, hi = v[np.argmin(v)], v[np.argmax(v)]
        if lo < self.min:
            self.min = float(lo)
        if hi > self.max:
            self.max = float(hi)

    def _observe_counts(self, v: np.ndarray) -> bool:
        """:meth:`observe_many`'s integer path for the 1-D integer array
        ``v``; ``False``, with nothing changed, where it would not be
        exact or its count table would outgrow ``v``."""
        n = v.size
        if not n:
            return True
        lo, hi = int(v.min()), int(v.max())
        prior = float(self.sum)
        if (
            lo < 0
            or hi >= n
            or not prior.is_integer()
            or int(abs(prior)) + n * hi >= _EXACT_INT_SUM
        ):
            return False
        per_value = np.bincount(v.astype(np.intp, copy=False))
        seen = np.flatnonzero(per_value)
        times = per_value[seen]
        # Value k goes to bucket searchsorted(bounds, float(k)), as on
        # the float path; the weighted per-bucket counts are below 2**53.
        added = np.bincount(
            np.searchsorted(self._bounds, seen, side="left"),
            weights=times,
            minlength=len(self.counts),
        )
        for i in np.flatnonzero(added).tolist():
            self.counts[i] += int(added[i])
        self.total += n
        self.sum = prior + int(times @ seen)
        if lo < self.min:
            self.min = float(lo)
        if hi > self.max:
            self.max = float(hi)
        return True

    def quantile(self, q: float) -> float:
        """Prometheus-style interpolated quantile estimate (nan if empty)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1]; got {q}")
        if self.total == 0:
            return math.nan
        # Boundary ranks are exact, not interpolated: rank 0 lands in
        # the first bucket even when it is empty (the cnt == 0 branch
        # below would return bounds[0] instead of the observed min).
        if q == 0.0:
            return self.min
        if q == 1.0:
            return self.max
        rank = q * self.total
        cum = 0
        for i, cnt in enumerate(self.counts):
            prev_cum = cum
            cum += cnt
            if cum >= rank:
                if i == len(self.bounds):  # +Inf bucket: clamp to observed max
                    return self.max
                lo = self.bounds[i - 1] if i else min(self.min, self.bounds[i])
                hi = self.bounds[i]
                if cnt == 0:
                    return hi
                return lo + (hi - lo) * (rank - prev_cum) / cnt
        return self.max  # pragma: no cover - rank <= total always hits above

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else math.nan

    def render(self) -> list[str]:
        lines = []
        cum = 0
        for bound, cnt in zip(self.bounds, self.counts):
            cum += cnt
            lines.append(f'{self.name}_bucket{{le="{bound:g}"}} {cum}')
        lines.append(f'{self.name}_bucket{{le="+Inf"}} {self.total}')
        lines.append(f"{self.name}_sum {self.sum}")
        lines.append(f"{self.name}_count {self.total}")
        if self.nonfinite:
            lines.append(f"{self.name}_nonfinite {self.nonfinite}")
        return lines

    def snapshot(self):
        return {
            "count": self.total,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min if self.total else math.nan,
            "max": self.max if self.total else math.nan,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "nonfinite": self.nonfinite,
        }

    def state_dict(self) -> dict:
        return {
            "kind": self.kind,
            "help": self.help,
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "total": self.total,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "nonfinite": self.nonfinite,
        }


class MetricsRegistry:
    """Named metrics + snapshot hooks; one per service (or test)."""

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._hooks: list[Callable[[dict], None]] = []

    def _register(self, metric):
        existing = self._metrics.get(metric.name)
        if existing is not None:
            if type(existing) is not type(metric):
                raise ValueError(
                    f"metric {metric.name!r} already registered as {existing.kind}"
                )
            return existing
        self._metrics[metric.name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._register(Counter(name, help))

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._register(Gauge(name, help))

    def histogram(
        self, name: str, help: str = "", buckets: Iterable[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        return self._register(Histogram(name, help, buckets))

    def get(self, name: str):
        return self._metrics[name]

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def render_text(self) -> str:
        """Text exposition of every registered metric."""
        out = []
        for name in sorted(self._metrics):
            m = self._metrics[name]
            if m.help:
                out.append(f"# HELP {name} {m.help}")
            out.append(f"# TYPE {name} {m.kind}")
            out.extend(m.render())
        return "\n".join(out) + "\n"

    def snapshot(self) -> dict:
        """Plain-dict snapshot of every metric (hook / report payload)."""
        return {name: m.snapshot() for name, m in sorted(self._metrics.items())}

    def add_snapshot_hook(self, hook: Callable[[dict], None]) -> None:
        """Register a callable fed each periodic :meth:`snapshot` dict."""
        self._hooks.append(hook)

    def fire_snapshot_hooks(self) -> dict:
        snap = self.snapshot()
        for hook in self._hooks:
            hook(snap)
        return snap

    def state_dict(self) -> dict:
        """Serializable full state of every metric (unlike
        :meth:`snapshot` it keeps raw bucket counts)."""
        return {name: m.state_dict() for name, m in sorted(self._metrics.items())}


def ndjson_snapshot_hook(path: str, *, clock: Callable[[], float] = time.time):
    """A snapshot hook spooling each snapshot as one NDJSON line.

    Register the returned callable with
    :meth:`MetricsRegistry.add_snapshot_hook`; every periodic snapshot
    appends ``{"seq": k, "time": <unix>, "metrics": {...}}`` to
    ``path``.  The file is opened per line (append mode), so a killed
    process leaves only whole lines behind and a restored one keeps
    appending to the same spool.  Each line is one ``json.loads``
    away from the snapshot dict.
    """
    seq = [0]

    def hook(snap: dict) -> None:
        record = {"seq": seq[0], "time": clock(), "metrics": snap}
        seq[0] += 1
        with open(path, "a") as fh:
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")

    return hook
