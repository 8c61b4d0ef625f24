"""In-memory span tracer for the benchmark's traced runs.

The traced run wraps public names of the library from the outside — no
file under ``src/`` changes.  Two kinds of wrapper:

* a **span** records ``(id, parent, name, layer, start, end)`` for every
  call.  It is used at layer boundaries that are called a bounded
  number of times per operation (a sweep's execute, a service round).
* a **leaf** adds the call's duration and a count to an aggregate keyed
  by ``(enclosing span, name)``.  It is used for per-ball and per-round
  hot calls (``submit``, the compiled round callable, histogram
  observes), which would otherwise produce hundreds of thousands of
  span records.  A leaf may not contain other traced calls: anything a
  leaf calls is charged to the leaf.

A span's self time is its duration minus its child spans and the leaves
charged to it, so the self times of a subtree add up to its root's
duration.  Spans and leaf aggregates stay in memory and are written as
NDJSON when the run ends (:meth:`Tracer.write_ndjson`).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import warnings
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

_clock = time.perf_counter


@dataclass(frozen=True)
class Target:
    """One public name to wrap.

    ``where`` is ``"module:attr"`` or ``"module:Class.method"``.
    ``hook(tracer, result, args, kwargs)`` runs after each call, outside
    the timed interval, to record counts.  ``adapt(tracer, original)``
    replaces span/leaf wrapping with a custom replacement (for names
    whose *results* or *arguments* carry the traced calls).
    """

    where: str
    name: str
    layer: str
    kind: str = "span"  # "span" | "leaf"
    hook: Callable | None = None
    adapt: Callable | None = None


class Tracer:
    """Span records, leaf aggregates and exact counters of one process.

    ``probe`` is the process's :class:`~speed.SpeedProbe` (anything with
    a cumulative ``spent`` in seconds): time it spends inside a traced
    call is taken out of that call, so its samples land in no layer.
    """

    def __init__(self, probe) -> None:
        # [id, parent, name, layer, start, end, probe seconds inside]
        self.spans: list[list] = []
        self.leaves: dict[tuple, list] = {}  # (parent, name) -> [layer, calls, total_s]
        self.counts: dict[str, float] = defaultdict(float)
        self.dropped: list[str] = []  # span names whose target no longer exists
        self.probe = probe
        self._stack: list[int | None] = [None]
        self._in_leaf = False

    # -- wrappers ----------------------------------------------------------

    def span(self, fn: Callable, name: str, layer: str, hook=None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._in_leaf:
                return fn(*args, **kwargs)
            rec = self.open_span(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close_span(rec)
            if hook is not None:
                hook(self, result, args, kwargs)
            return result

        return wrapper

    def leaf(self, fn: Callable, name: str, layer: str, hook=None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._in_leaf:
                return fn(*args, **kwargs)
            self._in_leaf = True
            probed = self.probe.spent
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._charge(name, layer, _clock() - t0, probed)
            if hook is not None:
                hook(self, result, args, kwargs)
            return result

        return wrapper

    def leaf_call(self, fn: Callable, name: str, layer: str) -> "_LeafCall":
        """A leaf around one short-lived callable, such as a callback
        registered per ball; cheaper to create than :meth:`leaf`."""
        call = _LeafCall()
        call.fn, call.tracer, call.name, call.layer = fn, self, name, layer
        return call

    def _charge(self, name: str, layer: str, dt: float, probed: float) -> None:
        self._in_leaf = False
        dt -= self.probe.spent - probed
        key = (self._stack[-1], name)
        agg = self.leaves.get(key)
        if agg is None:
            self.leaves[key] = [layer, 1, dt]
        else:
            agg[1] += 1
            agg[2] += dt

    def open_span(self, name: str, layer: str) -> list:
        """Start a span; the benchmark also opens its own around set-up
        and the operation."""
        rec = [len(self.spans), self._stack[-1], name, layer, 0.0, 0.0, self.probe.spent]
        self.spans.append(rec)
        self._stack.append(rec[0])
        rec[4] = _clock()
        return rec

    def close_span(self, rec: list) -> None:
        rec[5] = _clock()
        rec[6] = self.probe.spent - rec[6]
        self._stack.pop()

    # -- installation -------------------------------------------------------

    def install(self, targets) -> None:
        """Wrap every target; a vanished name is dropped with a warning."""
        for t in targets:

            def factory(fn, t=t):
                if t.adapt is not None:
                    return t.adapt(self, fn)
                wrap = self.leaf if t.kind == "leaf" else self.span
                return wrap(fn, t.name, t.layer, t.hook)

            try:
                patch(t.where, factory)
            except (ImportError, AttributeError, KeyError) as exc:
                warnings.warn(
                    f"trace target {t.where} not found ({exc!r}); "
                    f"layer metrics from {t.name!r} are dropped",
                    RuntimeWarning,
                    stacklevel=2,
                )
                self.dropped.append(t.name)

    # -- analysis -------------------------------------------------------------

    def subtree(self, root: int) -> set[int]:
        """Ids of span ``root`` and of every span below it."""
        ids = {root}
        # Spans are recorded at call time, so a parent precedes its children.
        for sid, parent, *_rest in self.spans[root + 1:]:
            if parent in ids:
                ids.add(sid)
        return ids

    def self_times(self, root: int) -> dict[str, dict]:
        """Per name ``{"layer", "self_s", "total_s", "calls"}`` under ``root``."""
        ids = self.subtree(root)
        out: dict[str, dict] = {}

        def add(name, layer, calls, total):
            e = out.setdefault(
                name, {"layer": layer, "self_s": 0.0, "total_s": 0.0, "calls": 0}
            )
            e["calls"] += calls
            e["total_s"] += total
            e["self_s"] += total

        child = defaultdict(float)
        for sid, parent, name, layer, start, end, probed in self.spans:
            if sid in ids:
                add(name, layer, 1, end - start - probed)
                if sid != root:
                    child[parent] += end - start - probed
        for (parent, name), (layer, calls, total) in self.leaves.items():
            if parent in ids:
                add(name, layer, calls, total)
                child[parent] += total
        for sid, covered in child.items():
            out[self.spans[sid][2]]["self_s"] -= covered
        return out

    def durations(self, name: str, root: int) -> list[float]:
        """Durations of the spans called ``name`` under ``root``, in call order."""
        ids = self.subtree(root)
        return [
            end - start - probed
            for sid, _parent, n, _layer, start, end, probed in self.spans
            if n == name and sid in ids
        ]

    def write_ndjson(self, path, t0: float) -> None:
        """Spans then leaf aggregates, times in seconds since ``t0``;
        ``probe_s`` is the speed probe's time inside a span."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, layer, start, end, probed in self.spans:
                fh.write(json.dumps({
                    "kind": "span", "id": sid, "parent": parent, "name": name,
                    "layer": layer, "start": start - t0, "end": end - t0,
                    "probe_s": probed,
                }) + "\n")
            for (parent, name), (layer, calls, total) in self.leaves.items():
                fh.write(json.dumps({
                    "kind": "leaf", "parent": parent, "name": name,
                    "layer": layer, "calls": calls, "total_s": total,
                }) + "\n")


class _LeafCall:
    __slots__ = ("fn", "tracer", "name", "layer")

    def __call__(self, *args):
        tracer = self.tracer
        if tracer._in_leaf:
            return self.fn(*args)
        tracer._in_leaf = True
        probed = tracer.probe.spent
        t0 = _clock()
        try:
            return self.fn(*args)
        finally:
            tracer._charge(self.name, self.layer, _clock() - t0, probed)


def patch(where: str, factory: Callable) -> None:
    """Replace the public name ``where`` by ``factory(original)``.

    ``"module:Class.method"`` patches the class (a classmethod stays a
    classmethod).  ``"module:function"`` rebinds every alias of the
    function in the loaded ``repro`` modules, because callers reach it
    through the name their own module imported
    (``from .plan import execute``).
    """
    module_name, _, attr_path = where.partition(":")
    module = importlib.import_module(module_name)
    owner_name, _, attr = attr_path.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name)
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(factory(raw.__func__)))
        else:
            setattr(owner, attr, factory(raw))
        return
    original = getattr(module, attr)
    replacement = factory(original)
    for mod in list(sys.modules.values()):
        mod_name = getattr(mod, "__name__", None) or ""
        if mod_name == "repro" or mod_name.startswith("repro."):
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, replacement)
