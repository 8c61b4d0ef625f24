"""Per-round measurement of the quantities driving the paper's proof.

The analysis of Theorem 1 tracks, for each round ``t``:

* ``r_t(u)`` — balls received by server ``u`` (Definition 3),
* ``r_t(N(v)) = Σ_{u∈N(v)} r_t(u)`` and its max over clients ``r_t``
  (Definition 5),
* ``S_t(v)`` — fraction of burned servers in ``N(v)``, and
  ``S_t = max_v S_t(v)`` (Definition 3),
* ``K_t(v) = (1/(c·d·Δ_v)) Σ_{i≤t} r_i(N(v))`` and ``K_t = max_v K_t(v)``
  (Definition 6 / eq. 26), the proxy satisfying ``S_t ≤ K_t``.

These are exactly the series the Stage-I/Stage-II experiments (E4, E10,
E11) need.  Computing them costs two passes over the edges per round
(the neighbourhood sums ``A @ x`` as segment sums over the CSR rows),
so tracing is opt-in via :class:`TraceLevel`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from ..graphs.bipartite import BipartiteGraph
    from .config import ProtocolParams

__all__ = ["TraceLevel", "Trace"]


class TraceLevel(enum.Enum):
    """How much to record per round.

    * ``NONE`` — nothing (fastest; completion/work/loads still reported).
    * ``BASIC`` — scalar counters: alive balls, requests, acceptances,
      newly blocked servers, cumulative work.
    * ``FULL`` — BASIC plus the proof quantities ``S_t``, ``K_t``,
      ``max_v r_t(N(v))`` and ``max_u r_t(u)`` (two edge passes/round).
    """

    NONE = 0
    BASIC = 1
    FULL = 2


@dataclass
class Trace:
    """Per-round series recorded during a protocol run.

    All lists have one entry per executed round; :meth:`finalize` freezes
    them into NumPy arrays (idempotent).  ``alive_before`` is the number
    of unassigned balls at the *start* of the round, so
    ``alive_before[0] == Σ_v demand_v``.
    """

    level: TraceLevel
    alive_before: list[int] = field(default_factory=list)
    requests: list[int] = field(default_factory=list)
    accepted: list[int] = field(default_factory=list)
    newly_blocked: list[int] = field(default_factory=list)
    blocked_total: list[int] = field(default_factory=list)
    work_cum: list[int] = field(default_factory=list)
    # FULL level only:
    s_t: list[float] = field(default_factory=list)
    k_t: list[float] = field(default_factory=list)
    r_neigh_max: list[int] = field(default_factory=list)
    r_server_max: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._edge_server = None  # server id of each CSR edge, lazily bound
        self._rows = None  # clients with at least one edge
        self._row_starts = None  # their first edge
        self._cum_r_neigh = None  # Σ_{i≤t} r_i(N(v)) per client
        self._inv_deg = None  # 1/Δ_v per client (inf-guarded)
        self._cd = 1.0  # c·d normalizer for K_t
        self._finalized = False

    # -- recording ---------------------------------------------------------

    def bind(self, graph: "BipartiteGraph", params: "ProtocolParams") -> None:
        """Prepare FULL-level machinery for ``graph`` (no-op otherwise)."""
        if self.level is not TraceLevel.FULL:
            return
        self._edge_server = graph.client_indices
        self._rows = np.flatnonzero(graph.client_degrees)
        self._row_starts = graph.client_indptr[self._rows]
        self._cum_r_neigh = np.zeros(graph.n_clients, dtype=np.float64)
        deg = graph.client_degrees.astype(np.float64)
        with np.errstate(divide="ignore"):
            self._inv_deg = np.where(deg > 0, 1.0 / deg, 0.0)
        self._cd = float(params.c * params.d)

    def record_round(
        self,
        *,
        alive_before: int,
        requests: int,
        accepted: int,
        newly_blocked: int,
        blocked_mask: np.ndarray | None,
        received: np.ndarray | None,
        work_cum: int,
    ) -> None:
        """Record one executed round; FULL fields need the server vectors."""
        if self.level is TraceLevel.NONE:
            return
        self.alive_before.append(alive_before)
        self.requests.append(requests)
        self.accepted.append(accepted)
        self.newly_blocked.append(newly_blocked)
        self.blocked_total.append(int(blocked_mask.sum()) if blocked_mask is not None else 0)
        self.work_cum.append(work_cum)
        if self.level is TraceLevel.FULL:
            assert self._edge_server is not None, "Trace.bind() was not called"
            r_neigh = self._neigh_sum(received)
            self._cum_r_neigh += r_neigh
            blocked_in_neigh = self._neigh_sum(blocked_mask)
            s_v = blocked_in_neigh * self._inv_deg
            self.s_t.append(float(s_v.max()) if s_v.size else 0.0)
            k_v = self._cum_r_neigh * self._inv_deg / self._cd
            self.k_t.append(float(k_v.max()) if k_v.size else 0.0)
            self.r_neigh_max.append(int(r_neigh.max()) if r_neigh.size else 0)
            self.r_server_max.append(int(received.max()) if received.size else 0)

    def _neigh_sum(self, per_server: np.ndarray) -> np.ndarray:
        """``A @ per_server`` in float64: each client's sum over its
        neighbours, summed as int64, so the sums are exact."""
        out = np.zeros(self._inv_deg.size, dtype=np.float64)
        if self._rows.size:
            out[self._rows] = np.add.reduceat(
                per_server[self._edge_server], self._row_starts, dtype=np.int64
            )
        return out

    # -- finalized views ----------------------------------------------------

    def finalize(self) -> "Trace":
        """Freeze all series into arrays (idempotent); returns self."""
        if self._finalized:
            return self
        for name in (
            "alive_before",
            "requests",
            "accepted",
            "newly_blocked",
            "blocked_total",
            "work_cum",
            "r_neigh_max",
            "r_server_max",
        ):
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.int64))
        for name in ("s_t", "k_t"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        self._finalized = True
        return self

    @property
    def n_rounds(self) -> int:
        return len(self.alive_before)

    def max_s_t(self) -> float:
        """``max_t S_t`` over the run (the quantity Lemma 4 bounds by 1/2)."""
        arr = np.asarray(self.s_t, dtype=np.float64)
        return float(arr.max()) if arr.size else 0.0

    def max_k_t(self) -> float:
        """``max_t K_t`` over the run (``S_t ≤ K_t`` per eq. 3)."""
        arr = np.asarray(self.k_t, dtype=np.float64)
        return float(arr.max()) if arr.size else 0.0

    def alive_decay_ratios(self) -> np.ndarray:
        """Per-round ``alive(t+1)/alive(t)`` ratios (§3.2's 4/5 factor)."""
        a = np.asarray(self.alive_before, dtype=np.float64)
        if a.size < 2:
            return np.empty(0, dtype=np.float64)
        prev = a[:-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(prev > 0, a[1:] / prev, 0.0)
        return out

    def as_dict(self) -> dict:
        """Plain-dict export (arrays as lists) for JSON/tables."""
        self.finalize()
        out = {
            "level": self.level.name,
            "alive_before": np.asarray(self.alive_before).tolist(),
            "requests": np.asarray(self.requests).tolist(),
            "accepted": np.asarray(self.accepted).tolist(),
            "newly_blocked": np.asarray(self.newly_blocked).tolist(),
            "blocked_total": np.asarray(self.blocked_total).tolist(),
            "work_cum": np.asarray(self.work_cum).tolist(),
        }
        if self.level is TraceLevel.FULL:
            out.update(
                s_t=np.asarray(self.s_t).tolist(),
                k_t=np.asarray(self.k_t).tolist(),
                r_neigh_max=np.asarray(self.r_neigh_max).tolist(),
                r_server_max=np.asarray(self.r_server_max).tolist(),
            )
        return out
