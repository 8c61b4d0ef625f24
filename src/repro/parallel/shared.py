"""Zero-copy graph sharing across process-pool workers.

Why
---
At ``n ≥ 10⁵`` the CSR topology is tens to hundreds of MB.  Shipping it
inside every pool task (or regenerating it worker-side) makes the
*scale* axis serialization-bound: each task pays a pickle, a pipe
transfer, and an unpickle of arrays that never change during a sweep.

This module moves the graph out of the task payload:

* :class:`SharedGraph` copies the four CSR arrays into one
  :class:`multiprocessing.shared_memory.SharedMemory` block.  The
  handle pickles as a name plus array metadata (a few hundred bytes);
  workers attach and build a :class:`~repro.graphs.bipartite.BipartiteGraph`
  whose arrays are *views* into the block — no copy, ever.
* On ``fork`` start methods there is an even cheaper path: the parent
  installs the graph in a module global before the pool forks, and
  workers inherit the pages copy-on-write.  :func:`graph_context` picks
  the right mechanism automatically.

The worker-side entry is :func:`current_task_graph`, which the plan
workers (:mod:`repro.plan`) call on a pinned topology installed by
``run_sweep(..., graph=...)``.
"""

from __future__ import annotations

import multiprocessing
import secrets
from contextlib import contextmanager
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from ..graphs.bipartite import BipartiteGraph

__all__ = ["SharedGraph", "current_task_graph", "graph_context"]

_ALIGN = 64  # cache-line alignment for each array within the block

_CSR_FIELDS = ("client_indptr", "client_indices", "server_indptr", "server_indices")


def _unregister_attachment(shm: shared_memory.SharedMemory) -> None:
    """Stop the resource tracker from reaping a segment we only attached to.

    On Python < 3.13 every ``SharedMemory(name=...)`` attach registers
    the segment with the *attaching* process's resource tracker, which
    unlinks it when that process exits — destroying the parent's block
    mid-run.  Owners keep their registration; attachments drop theirs.
    """
    try:  # pragma: no cover - defensive against tracker internals moving
        resource_tracker.unregister(shm._name, "shared_memory")  # type: ignore[attr-defined]
    except Exception:
        pass


class SharedGraph:
    """A picklable zero-copy handle to a graph in shared memory.

    Create with :meth:`share` in the parent; pass the handle to workers
    (cheap — only metadata travels); read ``.graph`` anywhere to get a
    :class:`BipartiteGraph` backed by the shared block.  The creating
    process must keep the handle alive and call :meth:`unlink` (or use
    it as a context manager) when the fleet is done.
    """

    def __init__(
        self,
        shm_name: str,
        n_clients: int,
        n_servers: int,
        graph_name: str,
        layout: list[tuple[str, str, int, int]],
        *,
        _shm: shared_memory.SharedMemory | None = None,
        _owner: bool = False,
    ):
        self.shm_name = shm_name
        self.n_clients = n_clients
        self.n_servers = n_servers
        self.graph_name = graph_name
        self.layout = layout  # (field, dtype str, offset, length) per array
        self._shm = _shm
        self._owner = _owner
        self._graph: BipartiteGraph | None = None

    # -- construction ---------------------------------------------------

    @classmethod
    def share(cls, graph: BipartiteGraph) -> "SharedGraph":
        """Copy ``graph``'s CSR arrays into a fresh shared-memory block."""
        arrays = {f: np.ascontiguousarray(getattr(graph, f)) for f in _CSR_FIELDS}
        layout: list[tuple[str, str, int, int]] = []
        offset = 0
        for field, arr in arrays.items():
            offset = (offset + _ALIGN - 1) // _ALIGN * _ALIGN
            layout.append((field, arr.dtype.str, offset, arr.size))
            offset += arr.nbytes
        name = f"repro-graph-{secrets.token_hex(8)}"
        shm = shared_memory.SharedMemory(name=name, create=True, size=max(offset, 1))
        for (field, dtype, off, length), arr in zip(layout, arrays.values()):
            dst = np.ndarray(length, dtype=dtype, buffer=shm.buf, offset=off)
            dst[:] = arr
        return cls(
            name,
            graph.n_clients,
            graph.n_servers,
            graph.name,
            layout,
            _shm=shm,
            _owner=True,
        )

    # -- worker-side access ---------------------------------------------

    def _attach(self) -> shared_memory.SharedMemory:
        if self._shm is None:
            shm = shared_memory.SharedMemory(name=self.shm_name, create=False)
            _unregister_attachment(shm)
            self._shm = shm
        return self._shm

    @property
    def graph(self) -> BipartiteGraph:
        """The shared graph as zero-copy array views (attach on first use)."""
        if self._graph is None:
            shm = self._attach()
            fields = {
                field: np.ndarray(length, dtype=dtype, buffer=shm.buf, offset=off)
                for field, dtype, off, length in self.layout
            }
            self._graph = BipartiteGraph(
                n_clients=self.n_clients,
                n_servers=self.n_servers,
                name=self.graph_name,
                **fields,
            )
        return self._graph

    @property
    def nbytes(self) -> int:
        """Size of the shared payload in bytes."""
        _f, dtype, off, length = self.layout[-1]
        return off + length * np.dtype(dtype).itemsize

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Drop this process's mapping (workers; owner keeps the block)."""
        self._graph = None
        if self._shm is not None:
            self._shm.close()
            self._shm = None

    def unlink(self) -> None:
        """Destroy the block (owner only; call once the pool is done)."""
        owned = self._shm if self._owner else None
        self.close()
        if owned is None and self._owner:
            owned = shared_memory.SharedMemory(name=self.shm_name, create=False)
            _unregister_attachment(owned)
        if owned is not None:
            # Under fork the pool workers share the parent's resource
            # tracker, so their attach-time unregister may have dropped
            # our registration; re-registering makes the unregister
            # inside unlink() a no-op instead of a tracker KeyError.
            try:  # pragma: no cover - tracker internals
                resource_tracker.register(owned._name, "shared_memory")  # type: ignore[attr-defined]
            except Exception:
                pass
            owned.unlink()

    def __enter__(self) -> "SharedGraph":
        return self

    def __exit__(self, *exc) -> None:
        if self._owner:
            self.unlink()
        else:
            self.close()

    # -- pickling: metadata only -----------------------------------------

    def __getstate__(self) -> dict:
        return {
            "shm_name": self.shm_name,
            "n_clients": self.n_clients,
            "n_servers": self.n_servers,
            "graph_name": self.graph_name,
            "layout": self.layout,
        }

    def __setstate__(self, state: dict) -> None:
        self.__init__(**state)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SharedGraph(shm={self.shm_name!r}, graph={self.graph_name!r}, "
            f"nbytes={self.nbytes})"
        )


# ---------------------------------------------------------------------------
# Worker-side task-graph slot + the context manager that fills it.
# ---------------------------------------------------------------------------

# One graph per worker process, installed either by fork inheritance or
# by the pool initializer before any task runs.
_TASK_GRAPH: BipartiteGraph | None = None


def current_task_graph() -> BipartiteGraph:
    """The graph installed for this worker's tasks (see :func:`graph_context`)."""
    if _TASK_GRAPH is None:
        raise RuntimeError(
            "no task graph installed in this process; run the task through "
            "run_sweep with graph=... (or call graph_context)"
        )
    return _TASK_GRAPH


def _install_task_graph(payload: "SharedGraph | BipartiteGraph") -> None:
    """Pool initializer: map the shared block (or adopt a plain graph)."""
    global _TASK_GRAPH
    _TASK_GRAPH = payload.graph if isinstance(payload, SharedGraph) else payload


@contextmanager
def graph_context(graph: "BipartiteGraph | SharedGraph", *, processes: int):
    """Yield ``(graph_view, initializer, initargs)`` for a worker pool.

    Chooses the cheapest sharing mechanism:

    * serial (``processes <= 1``): no sharing needed — the caller uses
      the graph directly;
    * ``fork`` start method with a plain graph: install in the parent's
      module global pre-fork; children inherit the pages copy-on-write
      (true zero-copy, no initializer);
    * otherwise (``spawn``/``forkserver``, or an explicit
      :class:`SharedGraph`): a shared-memory block plus an initializer
      that attaches each worker once.

    The shared block (when one is created here) is unlinked on exit.
    """
    global _TASK_GRAPH
    view = graph.graph if isinstance(graph, SharedGraph) else graph
    needs_pool_init = processes > 1 and (
        isinstance(graph, SharedGraph)
        or multiprocessing.get_start_method(allow_none=False) != "fork"
    )
    own_block: SharedGraph | None = None
    if needs_pool_init:
        if isinstance(graph, SharedGraph):
            handle = graph  # caller owns the lifecycle
        else:
            handle = own_block = SharedGraph.share(graph)
        initializer, initargs = _install_task_graph, (handle,)
    else:
        # Serial execution reads the parent's slot directly; fork pools
        # inherit it copy-on-write.  Either way, no initializer.
        initializer, initargs = None, ()
    prev = _TASK_GRAPH
    _TASK_GRAPH = view
    try:
        yield view, initializer, initargs
    finally:
        _TASK_GRAPH = prev
        if own_block is not None:
            own_block.unlink()
