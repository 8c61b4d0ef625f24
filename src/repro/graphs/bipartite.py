"""Immutable CSR bipartite graph used by every protocol and metric.

Design notes
------------
The hot loops of the simulation index client neighborhoods millions of
times per run, so the representation is a flat client→server CSR
adjacency, built once and never mutated.  No protocol reads the
server→client direction: it is derived from the client rows on first
read and kept (by ``graphs/io.py``'s cache writer, ``SharedGraph``'s
share, the journal's pinned-graph hash, :meth:`BipartiteGraph.validate`
and :meth:`~BipartiteGraph.neighbors_of_server`).  Server degrees are
counted from the client rows once, on first read, and kept read-only.
Multi-edges are disallowed: Algorithm 1 samples *with replacement from
the neighbor set*, so parallel edges would silently bias the
destination distribution.

Clients are indexed ``0..n_clients-1`` and servers ``0..n_servers-1``
in separate index spaces (the paper's local-labels assumption means no
global node ids are needed; separate spaces make that explicit).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from ..errors import GraphValidationError

__all__ = ["BipartiteGraph"]

#: Side sizes up to this pack an edge into one int64 key
#: ``(dst << 32) | src`` in :func:`_transpose_csr`; larger ones take the
#: stable-argsort path.
_PACKED_ID_LIMIT = 1 << 31


def _index_array(values, what: str, validate: bool) -> np.ndarray:
    """``values`` as a contiguous int64 array.

    With ``validate`` a non-empty array of any non-integer dtype is
    rejected rather than truncated: a float endpoint such as 0.7 would
    otherwise silently become the edge to node 0.  An empty array of any
    dtype (``[]`` reads as float64) is accepted.
    """
    arr = np.asarray(values)
    if validate and arr.size and not np.issubdtype(arr.dtype, np.integer):
        raise GraphValidationError(f"{what} must be integers; got dtype {arr.dtype}")
    return np.ascontiguousarray(arr, dtype=np.int64)


def _rows_strictly_sorted(indptr: np.ndarray, indices: np.ndarray) -> bool:
    """True iff every CSR row is strictly increasing (sorted, no duplicates)."""
    if indices.size < 2:
        return True
    # Pair i compares indices[i] and indices[i+1]; it is within a row
    # unless position i+1 starts a new row, so those pairs pass.  Empty
    # rows repeat indptr values, which just re-set the same pair.
    ok = indices[1:] > indices[:-1]
    starts = indptr[1:-1]
    ok[starts[(starts > 0) & (starts < indices.size)] - 1] = True
    return bool(ok.all())


def _transpose_csr(
    n_src: int, n_dst: int, indptr: np.ndarray, indices: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Reverse a CSR adjacency: dst→src (indptr, indices), rows sorted.

    The indptr is a ``bincount``/``cumsum`` of ``indices``.  The indices
    come from one in-place sort of the packed int64 key ``(dst << 32) |
    src``, whose low 32 bits are the reversed rows' entries.  Distinct
    edges have distinct keys, so the sorted order is the dst-major,
    src-ascending order a stable counting sort of the src-major edges
    gives; at 0.6M–10M edges it is also faster than scipy's COO→CSR.
    Side sizes past ``_PACKED_ID_LIMIT`` do not fit the key and take a
    stable argsort of ``indices`` instead, with the same result.
    """
    rev_indptr = np.zeros(n_dst + 1, dtype=np.int64)
    if indices.size == 0:
        return rev_indptr, np.empty(0, dtype=np.int64)
    np.cumsum(np.bincount(indices, minlength=n_dst), out=rev_indptr[1:])
    rows = np.repeat(np.arange(n_src, dtype=np.int64), np.diff(indptr))
    if max(n_src, n_dst) > _PACKED_ID_LIMIT:
        return rev_indptr, rows[np.argsort(indices, kind="stable")]
    keys = np.left_shift(indices, 32)
    keys |= rows
    keys.sort()
    keys &= 0xFFFFFFFF
    return rev_indptr, keys


@dataclass(frozen=True, init=False)
class BipartiteGraph:
    """An immutable bipartite client-server graph in CSR form.

    Attributes
    ----------
    n_clients, n_servers:
        Sizes of the two sides.  The paper assumes ``n_clients ==
        n_servers == n`` but nothing in the protocols needs that, so the
        library supports unequal sides.
    client_indptr, client_indices:
        CSR adjacency client→server: the neighbors of client ``v`` are
        ``client_indices[client_indptr[v]:client_indptr[v+1]]``, sorted.
    server_indptr, server_indices:
        CSR adjacency server→client of the same edge set.  Derived from
        the client rows by :func:`_transpose_csr` on first read and kept,
        unless the constructor was given both (the on-disk cache, shared
        memory and :func:`~repro.graphs.generators.complete_bipartite`
        pass them).  Only the cache writer, ``SharedGraph``, the
        journal's pinned-graph hash, :meth:`validate` and
        :meth:`neighbors_of_server` read them.
    """

    n_clients: int
    n_servers: int
    client_indptr: np.ndarray
    client_indices: np.ndarray
    name: str = field(default="bipartite", compare=False)

    def __init__(
        self,
        n_clients: int,
        n_servers: int,
        client_indptr: np.ndarray,
        client_indices: np.ndarray,
        server_indptr: np.ndarray | None = None,
        server_indices: np.ndarray | None = None,
        name: str = "bipartite",
    ):
        if (server_indptr is None) != (server_indices is None):
            raise TypeError("pass both server_indptr and server_indices, or neither")
        set_field = object.__setattr__  # the class is frozen
        set_field(self, "n_clients", n_clients)
        set_field(self, "n_servers", n_servers)
        set_field(self, "client_indptr", client_indptr)
        set_field(self, "client_indices", client_indices)
        set_field(self, "name", name)
        if server_indptr is not None:
            self.__dict__["_server_csr"] = (server_indptr, server_indices)

    @functools.cached_property
    def _server_csr(self) -> tuple[np.ndarray, np.ndarray]:
        return _transpose_csr(
            self.n_clients, self.n_servers, self.client_indptr, self.client_indices
        )

    @functools.cached_property
    def server_degrees(self) -> np.ndarray:
        """Degree of every server, ``Δ_u`` for ``u ∈ S``: counted from the
        client rows on first read (the reverse adjacency is not built)
        and kept read-only, so every report on one graph shares it."""
        deg = np.bincount(self.client_indices, minlength=self.n_servers)
        deg.setflags(write=False)
        return deg

    def __getstate__(self) -> dict:
        # An unpickled array is writable again: recount on first read.
        state = dict(self.__dict__)
        state.pop("server_degrees", None)
        return state

    @property
    def server_indptr(self) -> np.ndarray:
        """CSR row pointers server→client (derived on first read)."""
        return self._server_csr[0]

    @property
    def server_indices(self) -> np.ndarray:
        """CSR neighbor ids server→client, rows sorted (derived on first read)."""
        return self._server_csr[1]

    # -- constructors --------------------------------------------------

    @staticmethod
    def from_edges(
        n_clients: int,
        n_servers: int,
        edges: Iterable[tuple[int, int]] | np.ndarray,
        *,
        name: str = "bipartite",
        validate: bool = True,
    ) -> "BipartiteGraph":
        """Build a graph from (client, server) pairs, in any order.

        Raises :class:`GraphValidationError` on non-integer or
        out-of-range endpoints and on duplicate edges.  With
        ``validate=False`` the caller guarantees none of these.
        """
        if n_clients < 0 or n_servers < 0:
            raise GraphValidationError("side sizes must be non-negative")
        arr = _index_array(
            edges if isinstance(edges, np.ndarray) else list(edges), "edge endpoints", validate
        )
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise GraphValidationError(f"edges must be (m, 2); got shape {arr.shape}")
        if validate and arr.size:
            if arr[:, 0].min() < 0 or arr[:, 0].max() >= n_clients:
                raise GraphValidationError("client index out of range")
            if arr[:, 1].min() < 0 or arr[:, 1].max() >= n_servers:
                raise GraphValidationError("server index out of range")
        # One sort by (client, server) gives the forward CSR; duplicates
        # sit next to each other in it.
        width = np.int64(max(n_servers, 1))
        keys = arr[:, 0] * width + arr[:, 1]
        keys.sort()
        if validate and np.any(keys[1:] == keys[:-1]):
            raise GraphValidationError("duplicate edges are not allowed (sampling bias)")
        indptr = np.zeros(n_clients + 1, dtype=np.int64)
        np.cumsum(np.bincount(arr[:, 0], minlength=n_clients), out=indptr[1:])
        keys -= np.repeat(np.arange(n_clients, dtype=np.int64) * width, np.diff(indptr))
        return BipartiteGraph.from_csr(
            n_clients, n_servers, indptr, keys, name=name, validate=False
        )

    @staticmethod
    def from_csr(
        n_clients: int,
        n_servers: int,
        client_indptr: np.ndarray,
        client_indices: np.ndarray,
        *,
        name: str = "bipartite",
        validate: bool = True,
    ) -> "BipartiteGraph":
        """Build a graph directly from a client→server CSR adjacency.

        The fast path for vectorized generators: rows must already be
        strictly sorted (sorted neighbor ids, no parallel edges), so no
        edge-list round-trip and no re-sort is needed; the reverse
        adjacency waits for its first read.  With ``validate=True`` the
        CSR invariants, integer dtypes included, are checked with
        whole-array operations (still no Python loop).
        """
        indptr = _index_array(client_indptr, "client_indptr", validate)
        indices = _index_array(client_indices, "client_indices", validate)
        if n_clients < 0 or n_servers < 0:
            raise GraphValidationError("side sizes must be non-negative")
        if indptr.shape != (n_clients + 1,):
            raise GraphValidationError(
                f"client_indptr must have shape ({n_clients + 1},); got {indptr.shape}"
            )
        if validate:
            if indptr[0] != 0 or np.any(np.diff(indptr) < 0) or indptr[-1] != indices.size:
                raise GraphValidationError("malformed client_indptr")
            if indices.size and (indices.min() < 0 or indices.max() >= n_servers):
                raise GraphValidationError("server index out of range")
            if not _rows_strictly_sorted(indptr, indices):
                raise GraphValidationError(
                    "client rows must be strictly sorted (no parallel edges)"
                )
        return BipartiteGraph(n_clients, n_servers, indptr, indices, name=name)

    @staticmethod
    def from_neighbor_lists(
        neighbor_lists: Sequence[Sequence[int]],
        n_servers: int,
        *,
        name: str = "bipartite",
    ) -> "BipartiteGraph":
        """Build from per-client neighbor lists (validates and sorts)."""
        edges: list[tuple[int, int]] = []
        for v, nbrs in enumerate(neighbor_lists):
            for u in nbrs:
                edges.append((v, int(u)))
        return BipartiteGraph.from_edges(len(neighbor_lists), n_servers, edges, name=name)

    # -- invariants ------------------------------------------------------

    def validate(self) -> None:
        """Check all CSR invariants; raise :class:`GraphValidationError` on failure.

        Constructors already validate; this is for graphs loaded from
        disk or constructed field-by-field.
        """
        ci, cx = self.client_indptr, self.client_indices
        si, sx = self.server_indptr, self.server_indices
        if ci.shape != (self.n_clients + 1,) or si.shape != (self.n_servers + 1,):
            raise GraphValidationError("indptr length mismatch")
        if ci[0] != 0 or si[0] != 0:
            raise GraphValidationError("indptr must start at 0")
        if np.any(np.diff(ci) < 0) or np.any(np.diff(si) < 0):
            raise GraphValidationError("indptr must be non-decreasing")
        if ci[-1] != cx.size or si[-1] != sx.size:
            raise GraphValidationError("indptr tail must equal indices length")
        if cx.size != sx.size:
            raise GraphValidationError("edge count differs between directions")
        if cx.size and (cx.min() < 0 or cx.max() >= self.n_servers):
            raise GraphValidationError("client_indices out of range")
        if sx.size and (sx.min() < 0 or sx.max() >= self.n_clients):
            raise GraphValidationError("server_indices out of range")
        # Per-row sortedness and no duplicates (whole-array; graphs loaded
        # from the on-disk cache can have 10⁷+ edges).
        if not _rows_strictly_sorted(ci, cx):
            raise GraphValidationError("a client neighbor list is not strictly sorted")
        if not _rows_strictly_sorted(si, sx):
            raise GraphValidationError("a server neighbor list is not strictly sorted")
        # Cross-check that the two directions encode the same edge set:
        # compare the sorted (client, server) key multisets.
        fwd_rows = np.repeat(np.arange(self.n_clients, dtype=np.int64), np.diff(ci))
        fwd_keys = fwd_rows * np.int64(max(self.n_servers, 1)) + cx
        rev_cols = np.repeat(np.arange(self.n_servers, dtype=np.int64), np.diff(si))
        rev_keys = sx * np.int64(max(self.n_servers, 1)) + rev_cols
        if not np.array_equal(fwd_keys, np.sort(rev_keys)):
            raise GraphValidationError("forward/reverse adjacency disagree")

    # -- accessors -------------------------------------------------------

    @property
    def n_edges(self) -> int:
        """Number of edges |E|."""
        return int(self.client_indices.size)

    @property
    def client_degrees(self) -> np.ndarray:
        """Degree of every client, ``Δ_v`` for ``v ∈ C``."""
        return np.diff(self.client_indptr)

    def neighbors_of_client(self, v: int) -> np.ndarray:
        """Sorted server neighborhood ``N(v)`` (a view, do not mutate)."""
        return self.client_indices[self.client_indptr[v] : self.client_indptr[v + 1]]

    def neighbors_of_server(self, u: int) -> np.ndarray:
        """Sorted client neighborhood ``N(u)`` (a view, do not mutate)."""
        return self.server_indices[self.server_indptr[u] : self.server_indptr[u + 1]]

    def degree_min_clients(self) -> int:
        """``Δ_min(C)`` as defined in §2.1 (0 for an empty client side)."""
        deg = self.client_degrees
        return int(deg.min()) if deg.size else 0

    def degree_max_servers(self) -> int:
        """``Δ_max(S)`` as defined in §2.1 (0 for an empty server side)."""
        deg = self.server_degrees
        return int(deg.max()) if deg.size else 0

    def has_isolated_clients(self) -> bool:
        """True if some client has no admissible server (protocol cannot finish)."""
        return bool(np.any(self.client_degrees == 0))

    # -- conversions -------------------------------------------------------

    def edges(self) -> np.ndarray:
        """All edges as an ``(m, 2)`` array of (client, server), row-sorted."""
        rows = np.repeat(np.arange(self.n_clients, dtype=np.int64), self.client_degrees)
        return np.column_stack([rows, self.client_indices])

    def to_networkx(self):
        """Convert to a ``networkx.Graph`` with nodes ``('c', v)`` / ``('s', u)``.

        Optional dependency: imported lazily so the core library does not
        require networkx.
        """
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from((("c", int(v)) for v in range(self.n_clients)), bipartite=0)
        g.add_nodes_from((("s", int(u)) for u in range(self.n_servers)), bipartite=1)
        g.add_edges_from((("c", int(v)), ("s", int(u))) for v, u in self.edges())
        return g

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BipartiteGraph(name={self.name!r}, n_clients={self.n_clients}, "
            f"n_servers={self.n_servers}, n_edges={self.n_edges})"
        )
