"""Trial-batched server policies: SAER and RAES over a trial axis.

The batched engine runs ``R`` independent trials on the same graph, so a
policy's per-server state gains a leading trial axis: ``loads``,
``burned`` etc. become ``[R, n_servers]`` matrices.  Each batched policy
implements the *same* Phase-2 rule as its scalar counterpart in
:mod:`repro.core.policies` — trial ``r`` of the batch evolves exactly as
a single :class:`~repro.core.policies.SaerPolicy` /
:class:`~repro.core.policies.RaesPolicy` would, which is what the
trial-for-trial equivalence tests assert.

Two decision paths, chosen by the engine per round:

* :meth:`decide_dense` — the received counts arrive as a dense
  ``[A, n_servers]`` matrix (``A`` = currently active trials).  Used in
  early rounds when most balls are still alive and a segmented
  ``bincount`` over ``trial·n_s + dest`` is the cheapest way to build
  per-server batches.
* :meth:`decide_sparse` — late rounds have few alive balls spread over
  few (trial, server) pairs, so touching all ``A·n_s`` state entries per
  round would dominate the runtime (it is exactly the per-round ``O(n)``
  floor the reference engine pays).  The sparse path sorts the per-ball
  flat keys once (:func:`numpy.unique`) and reads/writes only the state
  entries that actually received a ball this round.

Both paths are exact: a server that receives no balls in a round cannot
change state under either rule (SAER maintains the invariant
``burned ⇔ cum_received > capacity``; RAES keeps no per-round state at
all), so skipping untouched entries is a pure optimization.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from ..errors import ProtocolConfigError

__all__ = [
    "BatchedServerPolicy",
    "BatchedSaerPolicy",
    "BatchedRaesPolicy",
]


def _zeroed(buffers, name: str, shape, dtype) -> np.ndarray:
    """Zeroed state: a view of ``buffers``' slot ``name``, or a fresh
    array the policy owns when ``buffers`` is ``None``."""
    if buffers is None:
        return np.zeros(shape, dtype=dtype)
    return buffers.get(name, shape, dtype, zero=True)


class BatchedServerPolicy:
    """Interface for Phase-2 rules with per-trial state ``[R, n_servers]``."""

    name: str = "abstract"

    def __init__(self, n_trials: int, n_servers: int, capacity: int):
        self._configure(n_trials, n_servers, capacity)
        self.take_state(None, np.int64)

    @classmethod
    def _stateless(cls, n_trials: int, n_servers: int, capacity: int):
        """A policy with no state arrays yet: the engine builds a named
        policy this way and hands it its state with :meth:`take_state`,
        so no ``[R, n_servers]`` slab is allocated only to be dropped."""
        policy = cls.__new__(cls)
        policy._configure(n_trials, n_servers, capacity)
        return policy

    def _configure(self, n_trials: int, n_servers: int, capacity: int) -> None:
        if n_trials < 0:
            raise ProtocolConfigError("n_trials must be non-negative")
        if n_servers < 0:
            raise ProtocolConfigError("n_servers must be non-negative")
        if capacity < 1:
            raise ProtocolConfigError(f"capacity must be >= 1; got {capacity}")
        self.n_trials = n_trials
        self.n_servers = n_servers
        self.capacity = capacity
        # Rounds this policy has decided.  The engine calls exactly one
        # decide path per round, so subclasses that need a round index
        # (e.g. the fault overlays in repro.faults.policies) advance it
        # from their decide overrides; the built-in rules never read it.
        self.rounds_seen = 0

    # -- decision paths ----------------------------------------------------

    def decide_dense(self, trials: np.ndarray, received: np.ndarray) -> np.ndarray:
        """Accept mask ``[A, n_servers]`` for dense per-server batch counts.

        ``trials`` holds the global trial indices of the ``A`` rows of
        ``received`` (sorted ascending; the engine guarantees it).
        """
        raise NotImplementedError

    def decide_sparse(self, ball_keys: np.ndarray) -> np.ndarray:
        """Per-ball accept mask from flat ``trial·n_servers + dest`` keys."""
        raise NotImplementedError

    # -- terminal metrics --------------------------------------------------

    def max_loads(self) -> np.ndarray:
        """Per-trial final maximum server load, shape ``[R]``."""
        if self.n_servers == 0:
            return np.zeros(self.n_trials, dtype=np.int64)
        return self.loads.max(axis=1)

    def blocked_counts(self) -> np.ndarray:
        """Per-trial count of servers that reject any non-empty batch."""
        raise NotImplementedError

    # -- helpers -----------------------------------------------------------

    def astype_state(self, counter_dtype, load_dtype=None) -> None:
        """Shrink integer state (the engine picks the narrowest dtypes
        that provably fit; this halves or quarters per-round state
        traffic).  ``counter_dtype`` bounds round-cumulative counters,
        ``load_dtype`` bounds accepted loads (≤ capacity by invariant)."""
        self.loads = self.loads.astype(load_dtype or counter_dtype, copy=False)

    def take_state(self, buffers, counter_dtype, load_dtype=None) -> None:
        """:meth:`astype_state` for a policy that has decided nothing yet:
        the state arrives zeroed in those dtypes from ``buffers`` (an
        :class:`~repro.batch.kernels.EngineBuffers`), so the engine calls
        of a sweep worker share one allocation instead of mapping and
        faulting a fresh ``[R, n_servers]`` slab each.  The state then
        belongs to the pool: it is valid until the pool's next call.
        With ``buffers=None`` the policy allocates and owns its arrays."""
        shape = (self.n_trials, self.n_servers)
        self.loads = _zeroed(buffers, "policy_loads", shape, load_dtype or counter_dtype)

    def _rows(self, trials: np.ndarray) -> Union[slice, np.ndarray]:
        """Index all state rows via a view when every trial is active."""
        return slice(None) if trials.size == self.n_trials else trials


class BatchedSaerPolicy(BatchedServerPolicy):
    """SAER (Algorithm 1) over a trial axis; see :class:`~repro.core.policies.SaerPolicy`.

    State per trial: ``cum_received`` (every ball ever received, accepted
    or not) and ``loads`` (accepted).  The burned set of Definition 3 is
    fully determined by ``cum_received > capacity`` and is therefore
    derived (:attr:`burned`), not stored.
    """

    name = "saer"

    def astype_state(self, counter_dtype, load_dtype=None) -> None:
        super().astype_state(counter_dtype, load_dtype)
        self.cum_received = self.cum_received.astype(counter_dtype, copy=False)

    def take_state(self, buffers, counter_dtype, load_dtype=None) -> None:
        super().take_state(buffers, counter_dtype, load_dtype)
        shape = (self.n_trials, self.n_servers)
        self.cum_received = _zeroed(buffers, "policy_cum", shape, counter_dtype)

    # Definition 3 burns a server the round its cumulative received count
    # first exceeds capacity, and cum_received is non-decreasing, so
    # ``burned ⇔ cum_received > capacity`` at all times.  A round's batch
    # is accepted iff the server was not burned before (cum_old ≤ cap)
    # AND does not burn now (cum_new ≤ cap) — and the first condition is
    # implied by the second.  Hence no separate burned array: one add and
    # one compare per round.

    # On the cext gate, a trial whose remaining balls see only burned
    # servers jumps to the round cap without sending them (see
    # repro_run in _kernels.c).  The rounds it skips would only have
    # added to cum_received on servers already burned, so there
    # cum_received is a lower bound of what grinding to the cap would
    # count.  burned, blocked_counts() and every BatchResult field are
    # exact; no result field exposes cum_received itself.

    @property
    def burned(self) -> np.ndarray:
        """Per-trial burned mask ``[R, n_servers]`` (derived, Definition 3)."""
        return self.cum_received > self.capacity

    # A further SAER-only identity: a server that is not burned has by
    # definition accepted every batch it ever received, so its load
    # always equals its cumulative received count.  Accepting servers
    # can therefore *copy* cum into loads instead of accumulating.

    def decide_dense(self, trials: np.ndarray, received: np.ndarray) -> np.ndarray:
        rows = self._rows(trials)
        cum = self.cum_received[rows]
        cum += received
        if not isinstance(rows, slice):
            self.cum_received[rows] = cum
        accept = cum <= self.capacity
        loads = self.loads[rows]
        np.copyto(loads, cum, where=accept, casting="unsafe")
        if not isinstance(rows, slice):
            self.loads[rows] = loads
        return accept

    def decide_sparse(self, ball_keys: np.ndarray) -> np.ndarray:
        keys, inverse, counts = np.unique(
            ball_keys, return_inverse=True, return_counts=True
        )
        cum_flat = self.cum_received.reshape(-1)
        loads_flat = self.loads.reshape(-1)
        cum = cum_flat[keys] + counts
        cum_flat[keys] = cum
        accept = cum <= self.capacity
        loads_flat[keys[accept]] = cum[accept]
        return accept[inverse]

    def blocked_counts(self) -> np.ndarray:
        return (self.cum_received > self.capacity).sum(axis=1)


class BatchedRaesPolicy(BatchedServerPolicy):
    """RAES over a trial axis; see :class:`~repro.core.policies.RaesPolicy`.

    A server rejects a round's batch iff accepting it would push its
    load above capacity; there is no permanent state, so the only state
    matrix is ``loads``.
    """

    name = "raes"

    def decide_dense(self, trials: np.ndarray, received: np.ndarray) -> np.ndarray:
        rows = self._rows(trials)
        loads = self.loads[rows]
        accept = loads + received <= self.capacity
        np.add(loads, received, out=loads, where=accept)
        if not isinstance(rows, slice):
            self.loads[rows] = loads
        return accept

    def decide_sparse(self, ball_keys: np.ndarray) -> np.ndarray:
        keys, inverse, counts = np.unique(
            ball_keys, return_inverse=True, return_counts=True
        )
        loads_flat = self.loads.reshape(-1)
        accept = loads_flat[keys] + counts <= self.capacity
        loads_flat[keys[accept]] += counts[accept]
        return accept[inverse]

    def blocked_counts(self) -> np.ndarray:
        return (self.loads >= self.capacity).sum(axis=1)
