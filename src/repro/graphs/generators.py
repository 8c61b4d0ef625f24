"""Random bipartite graph generators used throughout the experiments.

Each generator returns an immutable :class:`~repro.graphs.bipartite.BipartiteGraph`
(simple — no parallel edges, see that module's docstring) and accepts a
``seed`` in any form :func:`repro.rng.make_rng` understands.

Families provided (and where the paper needs them):

* :func:`random_regular_bipartite` — the Δ-regular graphs of §3.
* :func:`biregular` — unequal sides, constant degrees per side.
* :func:`near_regular` — client degrees spread over ``[Δ, ρΔ]``,
  exercising the almost-regularity allowance of Theorem 1.
* :func:`paper_extremal` — the "non-extremal example" after Theorem 1:
  most clients of degree ``Θ(log² n)``, a few of degree ``Θ(√n)``,
  a few servers of degree ``O(1)``.
* :func:`erdos_renyi_bipartite`, :func:`geometric_bipartite`,
  :func:`trust_subsets` — the application-flavoured topologies from the
  introduction (random, proximity-constrained, trust-restricted).
* :func:`complete_bipartite` — the dense case of prior work [4, 25].
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from ..errors import GraphConstructionError
from ..rng import make_rng
from .bipartite import BipartiteGraph

__all__ = [
    "random_regular_bipartite",
    "community_bipartite",
    "biregular",
    "near_regular",
    "paper_extremal",
    "erdos_renyi_bipartite",
    "geometric_bipartite",
    "trust_subsets",
    "complete_bipartite",
]

_MAX_RESTARTS = 50
_MAX_REPAIR_PASSES = 300


def _reject_resample_rows(
    rng: np.random.Generator, n: int, row_of: np.ndarray, total: int
) -> np.ndarray:
    """Core of :func:`_sample_distinct_rows`: collision-resampled rows.

    Draws one uniform value in ``range(n)`` per entry and resamples
    colliding entries (equal values within the same row) until every row
    is duplicate-free.  The procedure only compares drawn labels for
    equality, so its output law is invariant under any permutation of
    the labels — each row is therefore an exactly uniform distinct
    sample.  Returns the flat values sorted within each row.

    Expected iterations are O(1) when every row draws at most half its
    range (each pass shrinks the collision count by a factor ≤ k/n).
    """
    vals = rng.integers(0, n, size=total)
    keys = row_of * np.int64(n) + vals
    while True:
        order = np.argsort(keys, kind="stable")
        sk = keys[order]
        dup = np.zeros(total, dtype=bool)
        if total > 1:
            dup[1:] = sk[1:] == sk[:-1]
        bad = order[dup]
        if bad.size == 0:
            return sk - row_of[order] * np.int64(n)
        fresh = rng.integers(0, n, size=bad.size)
        vals[bad] = fresh
        keys[bad] = row_of[bad] * np.int64(n) + fresh


def _rowsort_resample(rng: np.random.Generator, n: int, m: np.ndarray) -> None:
    """Resample in-row collisions of the padded sample matrix, in place.

    ``m`` is ``(rows, kmax)`` with valid draws in ``[0, n)`` and the pad
    sentinel ``n`` (which sorts past every valid value).  Rows are
    sorted, colliding slots redrawn, and only affected rows re-sorted
    until every row is duplicate-free.  Only equality between drawn
    labels is ever inspected, so the output law is invariant under label
    permutations — each row is an exactly uniform distinct sample.
    """
    m.sort(axis=1)
    while True:
        dup = m[:, 1:] == m[:, :-1]
        dup &= m[:, 1:] < n  # pad sentinels self-compare equal; ignore them
        rr, cc = np.nonzero(dup)
        if rr.size == 0:
            return
        m[rr, cc + 1] = rng.integers(0, n, size=rr.size, dtype=m.dtype)
        bad = np.unique(rr)
        sub = m[bad]
        sub.sort(axis=1)
        m[bad] = sub


def _sample_distinct_rows(
    rng: np.random.Generator, n: int, counts: np.ndarray
) -> np.ndarray:
    """Batched distinct sampling: row ``i`` gets ``counts[i]`` distinct
    values from ``range(n)``, sorted within the row.

    One flat array of ``counts.sum()`` values comes back, rows
    delimited by ``cumsum(counts)`` — ready to be used as CSR
    ``indices`` via :meth:`BipartiteGraph.from_csr`.

    Strategy: draw every row's candidates at once into a ``(rows,
    max(counts))`` matrix (pad sentinel ``n``), sort rows in place, and
    redraw colliding slots until no row has a duplicate — collisions
    shrink by a factor ≤ k/n per pass, so a handful of passes suffice.
    Rows requesting more than half their range are sampled through
    their complement (a uniform ``(n-k)``-subset's complement is a
    uniform ``k``-subset), keeping the redraw loop in its fast regime.
    A flat sort-based fallback handles degenerate padding (a few huge
    rows among many tiny ones).
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.size and int(counts.max(initial=0)) > n:
        raise GraphConstructionError(
            f"cannot sample {int(counts.max())} distinct values from range({n})"
        )
    if np.any(counts < 0):
        raise GraphConstructionError("sample counts must be non-negative")
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    dense = counts > n // 2
    if dense.any():
        return _sample_distinct_rows_mixed(rng, n, counts, dense)

    n_rows = counts.size
    kmax = int(counts.max())
    dtype = np.int32 if n < 2**31 - 1 else np.int64
    if n_rows * kmax > max(4 * total, 1 << 24):
        # Pathological padding (few huge rows, many tiny ones): flat path.
        row_of = np.repeat(np.arange(n_rows, dtype=np.int64), counts)
        return _reject_resample_rows(rng, n, row_of, total)
    if n_rows * kmax == total:
        m = rng.integers(0, n, size=(n_rows, kmax), dtype=dtype)
    else:
        m = np.full((n_rows, kmax), n, dtype=dtype)
        valid = np.arange(kmax, dtype=np.int64)[None, :] < counts[:, None]
        m[valid] = rng.integers(0, n, size=total, dtype=dtype)
    _rowsort_resample(rng, n, m)
    if n_rows * kmax == total:
        return m.reshape(-1).astype(np.int64)
    return m[m < n].astype(np.int64)


def _sample_distinct_rows_mixed(
    rng: np.random.Generator, n: int, counts: np.ndarray, dense: np.ndarray
) -> np.ndarray:
    """Mixed regime of :func:`_sample_distinct_rows`: some rows sample
    more than half their range.  Sparse rows go through the row-sort
    sampler; dense rows sample their complement and invert via a
    per-row membership mask."""
    total = int(counts.sum())
    out = np.empty(total, dtype=np.int64)
    ends = np.cumsum(counts)
    starts = ends - counts
    sparse_rows = np.flatnonzero(~dense)
    if sparse_rows.size:
        s_counts = counts[sparse_rows]
        s_vals = _sample_distinct_rows(rng, n, s_counts)
        s_pos = np.repeat(starts[sparse_rows] - (np.cumsum(s_counts) - s_counts), s_counts)
        out[np.arange(s_vals.size, dtype=np.int64) + s_pos] = s_vals
    dense_rows = np.flatnonzero(dense)
    d_counts = counts[dense_rows]
    comp_counts = n - d_counts
    c_vals = _sample_distinct_rows(rng, n, comp_counts)
    mask = np.ones((dense_rows.size, n), dtype=bool)
    c_row_of = np.repeat(np.arange(dense_rows.size, dtype=np.int64), comp_counts)
    mask[c_row_of, c_vals] = False
    _d_rows, d_vals = np.nonzero(mask)
    d_pos = np.repeat(starts[dense_rows] - (np.cumsum(d_counts) - d_counts), d_counts)
    out[np.arange(d_vals.size, dtype=np.int64) + d_pos] = d_vals
    return out


class _DegreeBlock:
    """The rows of one degree class, as the repair walk sorts them.

    Row ``r`` of the block is client ``rows[r]``; its slot ``k`` holds
    ``servers[starts[r] + k] << bits | k``, so sorting a row orders its
    edges by (server, edge index).  Every row is padded to the class's
    widest degree: padding slot ``k`` holds ``(n_servers + k) << bits``,
    which sorts past every edge and never equals its neighbour.  The
    values are int32 whenever they fit.
    """

    def __init__(self, rows: np.ndarray, indptr: np.ndarray, n_servers: int):
        self.rows = rows
        self.starts = indptr[rows]
        self.degrees = indptr[rows + 1] - self.starts
        width = int(self.degrees.max())
        self.bits = (width - 1).bit_length()
        fits = (n_servers + width) << self.bits <= np.iinfo(np.int32).max
        self.slot = np.arange(width, dtype=np.int32 if fits else np.int64)
        self.padded = bool(self.degrees.min() < width)
        self.pad = (self.slot + n_servers) << self.bits
        self.values = None

    def _spans(self, m: int) -> bool:
        """True when the block's rows are all ``m`` edges, unpadded and in order."""
        return not self.padded and self.rows.size * self.slot.size == m

    def sort_rows(self, servers: np.ndarray, sel: np.ndarray | None) -> np.ndarray:
        """Rebuild block rows ``sel`` (every row if None) from
        ``servers``, sort them into :attr:`values` and return them."""
        if self._spans(servers.size):
            src = servers.reshape(self.rows.size, self.slot.size)
            vals = (src if sel is None else src[sel]).astype(self.slot.dtype)
        else:
            starts = self.starts if sel is None else self.starts[sel]
            # Padding slots of the last rows point past the last edge.
            vals = np.take(servers, starts[:, None] + self.slot, mode="clip")
            vals = vals.astype(self.slot.dtype, copy=False)
        vals <<= self.bits
        vals |= self.slot
        if self.padded:
            degrees = self.degrees if sel is None else self.degrees[sel]
            np.copyto(vals, self.pad, where=self.slot >= degrees[:, None])
        vals.sort(axis=1)
        if sel is None:
            self.values = vals
        else:
            self.values[sel] = vals
        return vals

    def duplicates(self, vals: np.ndarray, sel: np.ndarray | None):
        """The duplicate edges among sorted rows ``vals`` (block rows
        ``sel``): every edge whose server equals its left neighbour's.

        Returns each one's position in the sorted forward CSR, its edge
        index and its client, in (client, server, edge) order.
        """
        r, k = np.nonzero((vals[:, 1:] ^ vals[:, :-1]) < (1 << self.bits))
        k += 1
        slot = vals[r, k] & ((1 << self.bits) - 1)
        if sel is not None:
            r = sel[r]
        starts = self.starts[r]
        return starts + k, starts + slot, self.rows[r]

    def write_csr(self, servers: np.ndarray) -> None:
        """Write the sorted rows' servers into the forward CSR ``servers``."""
        vals = self.values >> self.bits
        if self._spans(servers.size):
            servers[:] = vals.reshape(-1)
            return
        pos = self.starts[:, None] + self.slot
        if self.padded:
            edge = self.slot < self.degrees[:, None]
            pos, vals = pos[edge], vals[edge]
        servers[pos] = vals


def _swap_servers(servers: np.ndarray, i: np.ndarray, j: np.ndarray) -> None:
    """``servers[i[t]], servers[j[t]] = servers[j[t]], servers[i[t]]``
    for t = 0, 1, ... in order.

    A swap whose indices appear nowhere else in ``i`` or ``j`` commutes
    with every other swap, so all such swaps go at once; the rest, few
    when ``len(i)`` is small against ``len(servers)``, swap in order.
    """
    both = np.concatenate((i, j))
    both.sort()
    repeated = both[1:][both[1:] == both[:-1]]
    clash = np.isin(i, repeated) | np.isin(j, repeated)
    fi, fj = i[~clash], j[~clash]
    servers[fi], servers[fj] = servers[fj], servers[fi]
    for a, b in zip(i[clash].tolist(), j[clash].tolist()):
        servers[a], servers[b] = servers[b], servers[a]


def _repair_walk(
    indptr: np.ndarray, servers: np.ndarray, n_servers: int, rng: np.random.Generator
) -> bool:
    """Make a configuration-model pairing simple via endpoint swaps.

    Edge ``e`` joins the client whose CSR row holds it (``indptr``) to
    ``servers[e]``.  Each pass finds the duplicate edges, each an edge
    whose (client, server) pair a smaller edge index already has, in
    (client, server, edge) order, draws one uniform partner edge per
    duplicate and swaps their servers in that order.  Swapping the
    server endpoints of two edges preserves every degree on both sides,
    so the repaired graph keeps the prescribed degree sequence exactly.

    Returns True with ``servers`` rewritten as the forward CSR indices
    (each row sorted), or False with duplicates left after
    ``_MAX_REPAIR_PASSES`` checks (the caller restarts from a fresh
    pairing).

    The rows live in one :class:`_DegreeBlock` per degree class
    ``⌈log₂ deg⌉``, so padding stays under 2×; rows of degree 0 or 1
    hold no duplicate and stay out.  The first pass sorts every row; a
    row can gain a duplicate only if a swap touched it, so later passes
    re-sort just the rows that held a duplicate or a swap partner.
    """
    m = servers.size
    degrees = np.diff(indptr)
    multi = np.flatnonzero(degrees > 1)
    classes = np.frexp(degrees[multi] - 1)[1]  # bit length of deg - 1
    blocks = [_DegreeBlock(multi[classes == c], indptr, n_servers) for c in np.unique(classes)]
    touched = None  # the clients a swap touched; None sorts every row
    for _check in range(_MAX_REPAIR_PASSES):
        found = []
        for block in blocks:
            sel = None if touched is None else np.flatnonzero(touched[block.rows])
            if sel is not None and sel.size == 0:
                continue
            found.append(block.duplicates(block.sort_rows(servers, sel), sel))
        if not found:  # no touched row can hold a duplicate
            found.append((np.empty(0, dtype=np.int64),) * 3)
        pos, dup_idx, dup_clients = (np.concatenate(f) for f in zip(*found))
        if len(found) > 1:
            # Each block lists its duplicates by client; merge the blocks.
            order = np.argsort(pos)
            dup_idx, dup_clients = dup_idx[order], dup_clients[order]
        if dup_idx.size == 0:
            for block in blocks:
                block.write_csr(servers)
            return True
        partners = rng.integers(0, m, size=dup_idx.size)
        _swap_servers(servers, dup_idx, partners)
        touched = np.zeros(degrees.size, dtype=bool)
        touched[dup_clients] = True
        touched[np.searchsorted(indptr, partners, side="right") - 1] = True
    return False


def _configuration_bipartite(
    client_degrees: np.ndarray,
    server_degrees: np.ndarray,
    rng: np.random.Generator,
    name: str,
) -> BipartiteGraph:
    """Exact-degree-sequence bipartite graph via the configuration model.

    Pairs client stubs with a random permutation of server stubs, then
    repairs parallel edges by degree-preserving swaps.  Restarts with a
    fresh permutation if the repair walk stalls.
    """
    client_degrees = np.asarray(client_degrees, dtype=np.int64)
    server_degrees = np.asarray(server_degrees, dtype=np.int64)
    if client_degrees.sum() != server_degrees.sum():
        raise GraphConstructionError(
            f"degree sums differ: clients {int(client_degrees.sum())} vs "
            f"servers {int(server_degrees.sum())}"
        )
    if np.any(client_degrees < 0) or np.any(server_degrees < 0):
        raise GraphConstructionError("degrees must be non-negative")
    if np.any(client_degrees > server_degrees.size):
        raise GraphConstructionError("a client degree exceeds the number of servers")
    if np.any(server_degrees > client_degrees.size):
        raise GraphConstructionError("a server degree exceeds the number of clients")
    n_clients, n_servers = client_degrees.size, server_degrees.size
    total = int(client_degrees.sum())
    indptr = np.zeros(n_clients + 1, dtype=np.int64)
    np.cumsum(client_degrees, out=indptr[1:])
    # Dense regime: the swap-repair walk stalls when few non-edges remain.
    # Realize the complement sequence (sparse) and invert — complementation
    # maps degree d to (other side size - d) exactly.
    if total > (n_clients * n_servers) // 2 and total < n_clients * n_servers:
        if n_clients * n_servers > (1 << 26):
            raise GraphConstructionError(
                "dense degree sequence too large for complementation "
                f"({n_clients}×{n_servers}); reduce density or size"
            )
        comp = _configuration_bipartite(
            n_servers - client_degrees, n_clients - server_degrees, rng, name="tmp-complement"
        )
        mask = np.ones((n_clients, n_servers), dtype=bool)
        e = comp.edges()
        mask[e[:, 0], e[:, 1]] = False
        indices = np.nonzero(mask)[1]  # row-major: each row's servers in order
        return BipartiteGraph.from_csr(n_clients, n_servers, indptr, indices, name=name)
    if total == n_clients * n_servers:
        return dataclasses.replace(complete_bipartite(n_clients, n_servers), name=name)
    for _ in range(_MAX_RESTARTS):
        servers = rng.permutation(np.repeat(np.arange(n_servers, dtype=np.int64), server_degrees))
        if _repair_walk(indptr, servers, n_servers, rng):
            break
    else:
        # A complete active part — every client and server of nonzero
        # degree joined to all of the other side's — has exactly one
        # simple realization, which the walk stops finding once the part
        # is large.  Only a stalled walk gets here, so every sequence the
        # walk realizes keeps its draws and its graph.
        live_c = np.flatnonzero(client_degrees)
        live_s = np.flatnonzero(server_degrees)
        if total == live_c.size * live_s.size:
            indices = np.tile(live_s, live_c.size)
            return BipartiteGraph.from_csr(n_clients, n_servers, indptr, indices, name=name)
        raise GraphConstructionError(
            "configuration model failed to produce a simple graph "
            f"(n_clients={n_clients}, n_servers={n_servers}); degrees too close to complete?"
        )
    # The walk's last, duplicate-free pass left every row sorted, so
    # ``servers`` is the forward CSR; from_csr's strictly-sorted row check
    # re-proves the graph simple in O(m).
    return BipartiteGraph.from_csr(n_clients, n_servers, indptr, servers, name=name)


def random_regular_bipartite(n: int, degree: int, seed=None) -> BipartiteGraph:
    """Random Δ-regular bipartite graph on ``n`` clients and ``n`` servers.

    This is the topology of §3 (the regular case of Theorem 1): every
    client and every server has degree exactly ``degree``.
    """
    if n <= 0:
        raise GraphConstructionError("n must be positive")
    if not (0 < degree <= n):
        raise GraphConstructionError(f"degree must be in [1, n]; got {degree} with n={n}")
    rng = make_rng(seed)
    deg = np.full(n, degree, dtype=np.int64)
    # Dense sequences (degree > n/2, including the complete graph) are
    # handled inside _configuration_bipartite via complementation.
    return _configuration_bipartite(deg, deg, rng, name=f"regular(n={n},deg={degree})")


def biregular(n_clients: int, n_servers: int, client_degree: int, seed=None) -> BipartiteGraph:
    """Biregular graph: every client has degree ``client_degree``.

    Server degrees are as equal as the divisibility allows: all equal to
    ``n_clients*client_degree / n_servers`` when that is an integer, and
    differing by at most one otherwise (the remainder is spread over a
    random subset of servers).
    """
    if n_clients <= 0 or n_servers <= 0:
        raise GraphConstructionError("side sizes must be positive")
    if not (0 < client_degree <= n_servers):
        raise GraphConstructionError("client_degree must be in [1, n_servers]")
    rng = make_rng(seed)
    total = n_clients * client_degree
    base, rem = divmod(total, n_servers)
    if base >= n_clients and rem:
        raise GraphConstructionError("server degrees would exceed the number of clients")
    sdeg = np.full(n_servers, base, dtype=np.int64)
    if rem:
        bump = rng.choice(n_servers, size=rem, replace=False)
        sdeg[bump] += 1
    cdeg = np.full(n_clients, client_degree, dtype=np.int64)
    return _configuration_bipartite(
        cdeg, sdeg, rng, name=f"biregular(nc={n_clients},ns={n_servers},cdeg={client_degree})"
    )


def near_regular(
    n: int,
    degree_lo: int,
    degree_hi: int,
    seed=None,
) -> BipartiteGraph:
    """Almost-regular graph: client degrees uniform in ``[degree_lo, degree_hi]``.

    Server degrees are balanced to match the (random) total, so the
    almost-regularity ratio ``Δ_max(S)/Δ_min(C)`` stays close to
    ``degree_hi/degree_lo`` — the ρ knob of Theorem 1.
    """
    if n <= 0:
        raise GraphConstructionError("n must be positive")
    if not (0 < degree_lo <= degree_hi <= n):
        raise GraphConstructionError("need 0 < degree_lo <= degree_hi <= n")
    rng = make_rng(seed)
    cdeg = rng.integers(degree_lo, degree_hi + 1, size=n).astype(np.int64)
    total = int(cdeg.sum())
    base, rem = divmod(total, n)
    sdeg = np.full(n, base, dtype=np.int64)
    if rem:
        bump = rng.choice(n, size=rem, replace=False)
        sdeg[bump] += 1
    return _configuration_bipartite(
        cdeg, sdeg, rng, name=f"near_regular(n={n},lo={degree_lo},hi={degree_hi})"
    )


def paper_extremal(n: int, eta: float = 1.0, seed=None) -> BipartiteGraph:
    """The degree-variance example discussed after Theorem 1.

    Builds a graph where

    * most clients have the minimal degree ``Δ_min = ⌈η log² n⌉``,
    * ``⌈log n⌉`` *heavy* clients have degree ``⌈√n⌉``,
    * ``⌈log n⌉`` *weak* servers have degree ``O(1)`` (they appear in
      only a couple of neighborhoods),
    * every other server has degree ``Θ(log² n)``.

    The theorem's hypotheses hold: ``Δ_min(C) ≥ η log² n`` and
    ``Δ_max(S)/Δ_min(C)`` is bounded by a constant (the construction
    balances normal-server degrees within a factor ~2 of ``Δ_min``).
    """
    if n < 16:
        raise GraphConstructionError("paper_extremal needs n >= 16")
    rng = make_rng(seed)
    log_n = math.log(n)
    d_min = max(2, math.ceil(eta * log_n * log_n))
    d_heavy = min(n, math.ceil(math.sqrt(n)))
    k = max(1, math.ceil(log_n))  # number of heavy clients and of weak servers
    if d_min > n or d_heavy > n:
        raise GraphConstructionError("n too small for the requested eta")

    cdeg = np.full(n, d_min, dtype=np.int64)
    cdeg[:k] = max(d_heavy, d_min)
    total = int(cdeg.sum())

    # Weak servers receive a constant degree; the remaining mass is
    # spread nearly evenly over normal servers.
    weak_deg = 2
    n_weak = k
    rest = total - weak_deg * n_weak
    n_normal = n - n_weak
    base, rem = divmod(rest, n_normal)
    if base >= n:
        raise GraphConstructionError("degree mass too large; reduce eta")
    sdeg = np.empty(n, dtype=np.int64)
    sdeg[:n_weak] = weak_deg
    sdeg[n_weak:] = base
    if rem:
        bump = n_weak + rng.choice(n_normal, size=rem, replace=False)
        sdeg[bump] += 1
    g = _configuration_bipartite(cdeg, sdeg, rng, name=f"paper_extremal(n={n},eta={eta})")
    return g


def erdos_renyi_bipartite(
    n_clients: int,
    n_servers: int,
    p: float,
    seed=None,
) -> BipartiteGraph:
    """Bipartite Erdős–Rényi graph: each (client, server) edge present w.p. ``p``.

    Implemented per client as a Binomial degree draw followed by a
    distinct-server sample, which is exactly equivalent and avoids an
    O(n²) dense mask.
    """
    if n_clients <= 0 or n_servers <= 0:
        raise GraphConstructionError("side sizes must be positive")
    if not (0.0 <= p <= 1.0):
        raise GraphConstructionError(f"p must be in [0, 1]; got {p}")
    rng = make_rng(seed)
    degrees = rng.binomial(n_servers, p, size=n_clients).astype(np.int64)
    indices = _sample_distinct_rows(rng, n_servers, degrees)
    indptr = np.zeros(n_clients + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    return BipartiteGraph.from_csr(
        n_clients,
        n_servers,
        indptr,
        indices,
        name=f"er(nc={n_clients},ns={n_servers},p={p:g})",
        validate=False,
    )


def geometric_bipartite(
    n_clients: int,
    n_servers: int,
    radius: float,
    seed=None,
    torus: bool = True,
) -> BipartiteGraph:
    """Proximity graph: points in the unit square, edge iff within ``radius``.

    Models the introduction's "clients and servers are placed over a
    metric space … only proximity-feasible interactions".  With
    ``torus=True`` distances wrap, so expected degrees are uniform
    ``≈ n·π·radius²`` with no boundary effects.

    Uses a cell grid so the pair search is ``O(n · expected_degree)``
    rather than ``O(n²)``; the grid join is whole-array (candidate pairs
    are materialized with a segmented gather, then distance-filtered in
    one shot — no per-client Python loop).
    """
    if n_clients <= 0 or n_servers <= 0:
        raise GraphConstructionError("side sizes must be positive")
    if not (0.0 < radius <= math.sqrt(2.0)):
        raise GraphConstructionError("radius must be in (0, sqrt(2)]")
    rng = make_rng(seed)
    cpos = rng.random((n_clients, 2))
    spos = rng.random((n_servers, 2))
    ncell = max(1, int(1.0 / radius))
    name = f"geometric(nc={n_clients},ns={n_servers},r={radius:g},torus={torus})"
    r2 = radius * radius

    if ncell < 3:
        # Coarse grids (radius > 1/3): wrapped neighbor cells coincide and
        # the graph is dense anyway (expected degree Ω(n)), so test all
        # pairs in client blocks — work stays proportional to the output.
        block = max(1, (1 << 24) // max(n_servers, 1))
        rows_parts: list[np.ndarray] = []
        cols_parts: list[np.ndarray] = []
        for lo in range(0, n_clients, block):
            hi = min(lo + block, n_clients)
            diff = np.abs(cpos[lo:hi, None, :] - spos[None, :, :])
            if torus:
                diff = np.minimum(diff, 1.0 - diff)
            hit_r, hit_c = np.nonzero((diff * diff).sum(axis=2) <= r2)
            rows_parts.append(hit_r.astype(np.int64) + lo)
            cols_parts.append(hit_c.astype(np.int64))
        pairs = np.column_stack([np.concatenate(rows_parts), np.concatenate(cols_parts)])
        return BipartiteGraph.from_edges(n_clients, n_servers, pairs, name=name, validate=False)

    cell_w = 1.0 / ncell

    def cell_of(pts: np.ndarray) -> np.ndarray:
        return np.minimum((pts / cell_w).astype(np.int64), ncell - 1)

    # Servers bucketed by cell: `sorder` lists server ids cell-by-cell,
    # `cell_starts`/`cell_counts` delimit each cell's run.
    scell = cell_of(spos)
    skey = scell[:, 0] * ncell + scell[:, 1]
    sorder = np.argsort(skey, kind="stable")
    cell_counts = np.bincount(skey, minlength=ncell * ncell)
    cell_starts = np.zeros(ncell * ncell + 1, dtype=np.int64)
    np.cumsum(cell_counts, out=cell_starts[1:])

    # The 3×3 cell neighborhood of every client at once: (n_clients, 9)
    # cell ids (ncell ≥ 3, so the nine wrapped cells are distinct and no
    # candidate dedup is needed).
    ccell = cell_of(cpos)
    offs = np.array([(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)], dtype=np.int64)
    gx = ccell[:, 0, None] + offs[None, :, 0]
    gy = ccell[:, 1, None] + offs[None, :, 1]
    if torus:
        gx %= ncell
        gy %= ncell
        valid = np.ones(gx.shape, dtype=bool)
    else:
        valid = (gx >= 0) & (gx < ncell) & (gy >= 0) & (gy < ncell)
        gx = np.clip(gx, 0, ncell - 1)
        gy = np.clip(gy, 0, ncell - 1)
    cells = (gx * ncell + gy)[valid]
    cl_of_entry = np.broadcast_to(
        np.arange(n_clients, dtype=np.int64)[:, None], valid.shape
    )[valid]

    # Segmented gather: expand each (client, cell) entry into that cell's
    # server run, giving the flat candidate-pair arrays.
    reps = cell_counts[cells]
    total = int(reps.sum())
    seg_ends = np.cumsum(reps)
    seg_starts = seg_ends - reps
    within = np.arange(total, dtype=np.int64) - np.repeat(seg_starts, reps)
    cand_server = sorder[np.repeat(cell_starts[cells], reps) + within]
    cand_client = np.repeat(cl_of_entry, reps)

    # Distance filter, axis-by-axis with in-place 1-D ops: the candidate
    # set is ~3× the edge count, so 2-D temporaries would dominate the
    # whole build in allocator traffic.
    d2 = np.empty(total, dtype=np.float64)
    axis_buf = np.empty(total, dtype=np.float64)
    for axis in (0, 1):
        np.take(np.ascontiguousarray(spos[:, axis]), cand_server, out=axis_buf)
        axis_buf -= np.ascontiguousarray(cpos[:, axis])[cand_client]
        np.abs(axis_buf, out=axis_buf)
        if torus:
            np.minimum(axis_buf, np.subtract(1.0, axis_buf), out=axis_buf)
        axis_buf *= axis_buf
        if axis == 0:
            d2[:] = axis_buf
        else:
            d2 += axis_buf
    hit = d2 <= r2
    rows_hit = cand_client[hit]
    cols_hit = cand_server[hit]
    # rows_hit is already client-major (candidates were generated per
    # client); one in-place sort of the combined key orders each row's
    # servers without an edge-list lexsort round-trip.
    indptr = np.zeros(n_clients + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows_hit, minlength=n_clients), out=indptr[1:])
    keys = rows_hit * np.int64(n_servers) + cols_hit
    keys.sort()
    indices = keys - np.repeat(
        np.arange(n_clients, dtype=np.int64) * np.int64(n_servers), np.diff(indptr)
    )
    return BipartiteGraph.from_csr(
        n_clients, n_servers, indptr, indices, name=name, validate=False
    )


def trust_subsets(n_clients: int, n_servers: int, k: int, seed=None) -> BipartiteGraph:
    """Godfrey's random-cluster model: each client trusts ``k`` random servers.

    Each neighborhood ``N(v)`` is a uniform ``k``-subset of the servers,
    independently per client — the "fixed subset of trusted servers"
    scenario from the introduction and from [17].
    """
    if n_clients <= 0 or n_servers <= 0:
        raise GraphConstructionError("side sizes must be positive")
    if not (0 < k <= n_servers):
        raise GraphConstructionError("k must be in [1, n_servers]")
    rng = make_rng(seed)
    indices = _sample_distinct_rows(rng, n_servers, np.full(n_clients, k, dtype=np.int64))
    indptr = np.arange(n_clients + 1, dtype=np.int64) * np.int64(k)
    return BipartiteGraph.from_csr(
        n_clients,
        n_servers,
        indptr,
        indices,
        name=f"trust(nc={n_clients},ns={n_servers},k={k})",
        validate=False,
    )


def community_bipartite(
    n: int,
    n_groups: int,
    k_within: int,
    k_across: int,
    seed=None,
) -> BipartiteGraph:
    """Community-structured trust graph: correlated neighborhoods.

    Clients and servers are split into ``n_groups`` equal communities;
    each client trusts ``k_within`` servers of its own community and
    ``k_across`` servers elsewhere.  Unlike :func:`trust_subsets`, the
    neighborhoods of same-community clients overlap heavily, so burned
    servers are *shared* — the stochastic-dependence structure the
    paper's analysis must cope with (§1.2), in concentrated form.  Used
    as an adversarial family in the invariant tests.
    """
    if n <= 0 or n_groups <= 0:
        raise GraphConstructionError("n and n_groups must be positive")
    if n % n_groups != 0:
        raise GraphConstructionError(f"n={n} must be divisible by n_groups={n_groups}")
    group = n // n_groups
    if not (0 <= k_within <= group):
        raise GraphConstructionError(f"k_within must be in [0, {group}]")
    if not (0 <= k_across <= n - group):
        raise GraphConstructionError(f"k_across must be in [0, {n - group}]")
    if k_within + k_across == 0:
        raise GraphConstructionError("every client needs at least one trusted server")
    rng = make_rng(seed)
    k = k_within + k_across
    group_start = (np.arange(n, dtype=np.int64) // group) * np.int64(group)
    parts: list[np.ndarray] = []
    if k_within:
        # One batched draw over the group-local range, shifted to each
        # client's own community block.
        within = _sample_distinct_rows(rng, group, np.full(n, k_within, dtype=np.int64))
        parts.append(within.reshape(n, k_within) + group_start[:, None])
    if k_across:
        # Draw over range(n - group) and skip the client's own block:
        # position x maps to server x when x < group_start, else x + group
        # (exactly the complement enumeration the per-client loop used).
        across = _sample_distinct_rows(rng, n - group, np.full(n, k_across, dtype=np.int64))
        across = across.reshape(n, k_across)
        parts.append(across + np.where(across >= group_start[:, None], group, 0))
    # The two blocks are disjoint per client (own community vs the rest),
    # so a per-row sort of the stacked matrix merges them duplicate-free.
    m = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
    m.sort(axis=1)
    indices = np.ascontiguousarray(m.reshape(-1))
    indptr = np.arange(n + 1, dtype=np.int64) * np.int64(k)
    return BipartiteGraph.from_csr(
        n,
        n,
        indptr,
        indices,
        name=f"community(n={n},groups={n_groups},kin={k_within},kout={k_across})",
        validate=False,
    )


def complete_bipartite(n_clients: int, n_servers: int) -> BipartiteGraph:
    """The complete bipartite graph — the classic balls-into-bins setting.

    This is the dense topology of the prior work the paper builds on
    ([25], [4] with Δ = n); useful as the reference point in the degree
    sweep (experiment E7).
    """
    if n_clients <= 0 or n_servers <= 0:
        raise GraphConstructionError("side sizes must be positive")
    return BipartiteGraph(
        n_clients=n_clients,
        n_servers=n_servers,
        client_indptr=np.arange(n_clients + 1, dtype=np.int64) * np.int64(n_servers),
        client_indices=np.tile(np.arange(n_servers, dtype=np.int64), n_clients),
        server_indptr=np.arange(n_servers + 1, dtype=np.int64) * np.int64(n_clients),
        server_indices=np.tile(np.arange(n_clients, dtype=np.int64), n_servers),
        name=f"complete(nc={n_clients},ns={n_servers})",
    )
