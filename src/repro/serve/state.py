"""Server-side SAER state shared by the live service and the offline simulator.

:class:`ServingState` owns everything that is *mutable* about a running
dynamic-SAER system: the cumulative received counts and burned mask of
the server side (with optional epoch recovery), the churn-able per-client
neighborhoods and their flat CSR view, the alive-ball table (owner,
birth round, optional caller tag), and the stream of protocol
randomness.  One round of the §4 dynamic protocol is split into three
verbs so both consumers can drive it:

``round_begin()``
    Burn recovery, then topology churn.
``admit_counts(...)`` / ``admit_balls(...)``
    Append newly arrived balls (dropping those at isolated clients —
    they can never be served, matching the simulator's ``dropped``
    accounting).
``route()``
    The SAER round proper — Phase-1 uniform destination gather, Phase-2
    count/decide against ``⌊c·d⌋``, survivor compaction — returning a
    :class:`RoundOutcome` with the per-ball assignments.

:func:`repro.dynamic.run_dynamic_saer` is a loop over these three verbs
and is **bit-identical** to the pre-refactor monolithic simulator
(``tests/data/dynamic_golden.json`` pins it); :mod:`repro.serve.service`
drives the same verbs from an asyncio micro-batching loop, so the
offline tables and the live service can never drift apart.

Like the batched engine, the round step is kernel-gated.  On ``cext``
(``kernel=`` or ``REPRO_KERNELS``) :meth:`ServingState.route` is one C
call, :meth:`~repro.batch.kernels.Kernel.serve_round_fn`: it walks the
alive balls in buffer order — no owner sort — drawing each ball's
uniform from the state's PCG64 stream, gathering its destination,
counting it into ``cum_received``, deciding against ``⌊c·d⌋`` and
compacting the survivors in place.  Every other case takes
:meth:`ServingState._route_numpy`, the vectorized reference and the
oracle: the ``numpy`` gate and a Generator whose bit generator is
not ``PCG64``.  Both
paths consume the identical uniform stream, leave the Generator in the
same state and produce identical assignments
(``tests/test_serve_state.py`` pins the parity).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass

import numpy as np

from ..batch.kernels import EngineBuffers, _pcg64_load, _pcg64_store, resolve_kernel
from ..core.config import ProtocolParams
from ..errors import CheckpointError, ProtocolConfigError, ServeError
from ..graphs.bipartite import BipartiteGraph
from ..rng import make_rng

__all__ = ["RoundOutcome", "ServingState"]

_EMPTY_I64 = np.empty(0, dtype=np.int64)

#: Checkpoint payload version; bump on incompatible layout changes.
CHECKPOINT_VERSION = 1


@dataclass
class RoundOutcome:
    """What one :meth:`ServingState.route` call did.

    ``latencies`` / ``assigned_servers`` / ``assigned_tags`` are aligned
    per assigned ball, in the canonical (ball-buffer) order; ``tags`` is
    ``None`` unless the state tracks caller tags.  ``received`` /
    ``accepted_counts`` are per-server ball counts for this round,
    populated only when the state tracks health (the service's
    quarantine loop consumes them).
    """

    round_no: int
    assigned: int
    backlog: int
    burned: int
    burned_fraction: float
    latencies: np.ndarray
    assigned_servers: np.ndarray
    assigned_tags: np.ndarray | None = None
    received: np.ndarray | None = None
    accepted_counts: np.ndarray | None = None


class ServingState:
    """Mutable dynamic-SAER state; see the module docstring for the verbs.

    ``track_tags=True`` (the live service) carries a caller-supplied
    int64 tag per ball through compaction so assignments can be mapped
    back to per-ball futures; the offline simulator leaves it off.
    ``buffers`` lets a host share one grow-only scratch pool across
    states; by default each state owns its own.

    ``faults`` accepts a :class:`~repro.faults.FaultSchedule`: server
    kinds overlay the route step (crashed/stalled servers reject
    everything with frozen counters, Byzantine under-reporters never
    fill up and never appear burned), client kinds transform
    admissions (duplicate spray, misroute).  All
    fault randomness comes from the schedule's own seed — the protocol
    RNG stream is untouched, so an empty or ``fraction=0`` schedule is
    bit-identical to ``faults=None``.
    """

    def __init__(
        self,
        graph: BipartiteGraph,
        c: float,
        d: int,
        *,
        recovery: int | None = None,
        churn=None,
        seed=None,
        kernel: str | None = None,
        buffers: EngineBuffers | None = None,
        track_tags: bool = False,
        faults=None,
    ) -> None:
        if recovery is not None and recovery < 1:
            raise ProtocolConfigError("recovery must be >= 1 when given")
        self.params = ProtocolParams(c=c, d=d)
        self.capacity = self.params.capacity
        self.recovery = recovery
        self.churn = churn
        self.rng = make_rng(seed)
        self.n_clients = graph.n_clients
        self.n_servers = graph.n_servers
        self.neighbor_lists = [
            graph.neighbors_of_client(v).copy() for v in range(self.n_clients)
        ]
        self.track_tags = track_tags
        self.buffers = buffers if buffers is not None else EngineBuffers()
        self._kern = resolve_kernel(kernel)
        self._serve_fn = self._kern.serve_round_fn()

        # Server state (SAER with optional epoch recovery).
        self.cum_received = np.zeros(self.n_servers, dtype=np.int64)
        self.burned = np.zeros(self.n_servers, dtype=bool)
        self.burn_clock = np.zeros(self.n_servers, dtype=np.int64)

        # Alive ball table: amortized-doubling buffers with an explicit
        # count, so arrivals append and acceptances compact in place.
        self._cap = 1024
        self._owners = np.empty(self._cap, dtype=np.int64)
        self._births = np.empty(self._cap, dtype=np.int64)
        self._tags = np.empty(self._cap, dtype=np.int64) if track_tags else None
        self.n_alive = 0

        self.round_no = 0
        self.dropped = 0
        self.assigned_total = 0

        # Fault injection (None = the untouched fast path everywhere).
        self.faults = (
            None if faults is None else faults.materialize(self.n_clients, self.n_servers)
        )
        self.byz_absorbed = 0
        # Quarantine: lazily activated so the no-quarantine path never
        # pays for it.  ``_full_lists`` holds the unfiltered (churn-able)
        # neighborhoods while any server is quarantined.
        self.quarantined: np.ndarray | None = None
        self._full_lists: list[np.ndarray] | None = None
        # Per-server received/accepted counts on each RoundOutcome —
        # enabled by the service when a health tracker is attached.
        self.track_health = False
        self._rebuild_flat()

    # -- topology ----------------------------------------------------------

    def _rebuild_flat(self) -> None:
        """Rebuild the flat CSR view of the (mutable) neighbor lists.

        Called only when churn changes them — keeps the per-round
        destination gather fully vectorized even with six-figure
        backlogs.
        """
        degs = np.array([nl.size for nl in self.neighbor_lists], dtype=np.int64)
        indptr = np.zeros(self.n_clients + 1, dtype=np.int64)
        np.cumsum(degs, out=indptr[1:])
        indices = (
            np.concatenate(self.neighbor_lists).astype(np.int64, copy=False)
            if indptr[-1]
            else np.empty(0, dtype=np.int64)
        )
        self.degs, self.indptr, self.indices = degs, indptr, indices

    # -- verbs -------------------------------------------------------------

    def round_begin(self) -> int:
        """Heal recovered servers, then apply churn; returns rewired count."""
        if self.recovery is not None and self.burned.any():
            # Flat passes: burned servers' clocks tick, and those that
            # reach `recovery` heal (flag, counter and clock reset).
            self.burn_clock += self.burned
            healed = (self.burn_clock >= self.recovery) & self.burned
            np.copyto(self.burned, False, where=healed)
            np.copyto(self.cum_received, 0, where=healed)
            np.copyto(self.burn_clock, 0, where=healed)
        rewired = 0
        if self.churn is not None:
            # With quarantine active, churn rewires the *full* lists (the
            # topology does not care who is quarantined — and the RNG
            # stream stays identical to the quarantine-free run), then
            # the routable view is refiltered.
            lists = self._full_lists if self._full_lists is not None else self.neighbor_lists
            rewired = self.churn.apply(self.rng, lists, self.n_servers)
            if rewired:
                if self._full_lists is not None:
                    self._refilter()
                else:
                    self._rebuild_flat()
        return rewired

    def _grow(self, need: int) -> None:
        if need <= self._cap:
            return
        while self._cap < need:
            self._cap *= 2
        for name in ("_owners", "_births", "_tags"):
            old = getattr(self, name)
            if old is None:
                continue
            new = np.empty(self._cap, dtype=np.int64)
            new[: self.n_alive] = old[: self.n_alive]
            setattr(self, name, new)

    def _append(self, owners: np.ndarray, tags: np.ndarray | None) -> None:
        k = owners.size
        self._grow(self.n_alive + k)
        sl = slice(self.n_alive, self.n_alive + k)
        self._owners[sl] = owners
        self._births[sl] = self.round_no
        if self._tags is not None:
            self._tags[sl] = tags if tags is not None else -1
        self.n_alive += k

    def admit_counts(self, new_counts: np.ndarray) -> int:
        """Admit per-client arrival counts (the simulator's path).

        Balls at isolated (zero-degree) clients are dropped — they can
        never be served — and counted in :attr:`dropped`.  Returns the
        number of balls admitted.
        """
        new_counts = np.asarray(new_counts)
        if self.faults is not None:
            new_counts = self.faults.transform_counts(self.round_no, new_counts)
        deg0 = self.degs == 0
        if deg0.any():
            self.dropped += int(new_counts[deg0].sum())
            new_counts = new_counts.copy()
            new_counts[deg0] = 0
        admitted = int(new_counts.sum())
        if admitted:
            owners = np.repeat(np.arange(self.n_clients, dtype=np.int64), new_counts)
            self._append(owners, None)
        return admitted

    def admit_balls(
        self, owners: np.ndarray, tags: np.ndarray | None = None
    ) -> tuple[int, np.ndarray]:
        """Admit individually tagged balls (the live service's path).

        Returns ``(admitted, dropped_tags)``: balls whose owner has a
        zero-degree neighborhood are rejected up front (their tags come
        back so the caller can resolve them as Dropped) and counted in
        :attr:`dropped`, matching the simulator's accounting.

        Under client-kind faults, Byzantine owners may be remapped
        (misroute) and adversarial duplicates appended with tag ``-1``
        (they resolve no caller future; ``admitted`` counts them).
        """
        owners = np.asarray(owners, dtype=np.int64)
        if owners.size and (owners.min() < 0 or owners.max() >= self.n_clients):
            raise ServeError("ball owner out of client range")
        if self.faults is not None and owners.size:
            owners, extra = self.faults.transform_owners(self.round_no, owners)
            if extra.size:
                owners = np.concatenate([owners, extra])
                if tags is not None:
                    tags = np.concatenate(
                        [tags, np.full(extra.size, -1, dtype=np.int64)]
                    )
        servable = self.degs[owners] > 0
        if not servable.all():
            n_drop = owners.size - int(np.count_nonzero(servable))
            self.dropped += n_drop
            dropped_tags = (
                tags[~servable] if tags is not None else np.full(n_drop, -1, np.int64)
            )
            owners = owners[servable]
            tags = tags[servable] if tags is not None else None
        else:
            dropped_tags = _EMPTY_I64
        if owners.size:
            self._append(owners, tags)
        return int(owners.size), dropped_tags

    def route(self) -> RoundOutcome:
        """Run one SAER round over the alive balls; see module docstring."""
        t = self.round_no
        self.round_no = t + 1
        n_s = self.n_servers
        if self.n_alive == 0:
            return RoundOutcome(
                round_no=t,
                assigned=0,
                backlog=0,
                burned=int(np.count_nonzero(self.burned)),
                burned_fraction=self.burned.mean() if n_s else 0.0,
                latencies=_EMPTY_I64,
                assigned_servers=_EMPTY_I64,
                assigned_tags=_EMPTY_I64 if self.track_tags else None,
            )
        overlay = self._fault_pre(t)
        if self._serve_fn is not None and type(self.rng.bit_generator) is np.random.PCG64:
            res = self._route_compiled(t)
        else:
            res = self._route_numpy(t)
        if overlay is not None:
            self._fault_post(overlay)
        asg, servers, latencies, tags, received, accepted_counts = res
        self.assigned_total += asg
        self.n_alive -= asg
        burned = int(np.count_nonzero(self.burned))
        return RoundOutcome(
            round_no=t,
            assigned=asg,
            backlog=self.n_alive,
            burned=burned,
            burned_fraction=burned / n_s if n_s else 0.0,
            latencies=latencies,
            assigned_servers=servers,
            assigned_tags=tags,
            received=received,
            accepted_counts=accepted_counts,
        )

    # -- fault overlay ------------------------------------------------------

    def _fault_pre(self, t: int):
        """Overlay server faults onto ``cum_received`` before the route.

        Crashed/stalled servers are pinned above capacity (both route
        paths then reject every ball sent to them); Byzantine
        under-reporters are zeroed and un-burned (they claim an empty
        counter every round, so they never appear burned).  Either way
        ``burned ⇔ cum_received > capacity`` holds on entry to the
        route, which both route paths' accept rules rely on.  Returns
        the undo record, or ``None`` when no server fault is active this
        round — in which case the route step is exactly the fault-free
        code path.
        """
        if self.faults is None:
            return None
        ov = self.faults.server_overlay(t)
        if ov is None:
            return None
        reject_idx, byz_idx = ov
        saved = self.cum_received[reject_idx].copy() if reject_idx.size else None
        if reject_idx.size:
            self.cum_received[reject_idx] = self.capacity + 1
        if byz_idx.size:
            self.cum_received[byz_idx] = 0
            self.burned[byz_idx] = False
        return reject_idx, byz_idx, saved

    def _fault_post(self, overlay) -> None:
        """Undo the overlay and restore the SAER invariant.

        Crashed servers get their pre-round counters back (the balls
        never reached them); Byzantine servers bank what they really
        absorbed in :attr:`byz_absorbed` and reset to zero (the lie).
        ``burned`` is then recomputed from ``cum_received`` — the
        invariant ``burned ⇔ cum_received > capacity`` both route paths
        rely on, which the overlay's temporary writes would otherwise
        corrupt via the numpy path's incremental ``burned |= newly``.
        """
        reject_idx, byz_idx, saved = overlay
        if byz_idx.size:
            after = self.cum_received[byz_idx]
            absorbed = np.where(after <= self.capacity, after, 0)
            self.byz_absorbed += int(absorbed.sum())
            self.cum_received[byz_idx] = 0
        if reject_idx.size:
            self.cum_received[reject_idx] = saved
        np.greater(self.cum_received, self.capacity, out=self.burned)

    def _route_numpy(self, t: int):
        """The vectorized reference round: draw → gather → count →
        decide → compact.  Returns ``(assigned, servers, latencies,
        tags, received, accepted_counts)``, all fresh arrays.

        The per-ball intermediates live in :attr:`buffers` rows sized to
        the ball table's capacity, so a round allocates only what it
        returns.  Every ``take`` uses ``mode="clip"`` because its indices
        are in range by construction and ``"raise"`` would buffer
        ``out`` through a fresh copy.
        """
        n = self.n_alive
        n_s = self.n_servers
        owners = self._owners[:n]
        births = self._births[:n]
        rows = self._cap

        def scratch(name, dtype):
            return self.buffers.get(name, rows, dtype)[:n]

        # Phase 0: every alive ball draws one uniform, in buffer order.
        u = scratch("serve.u", np.float64)
        self.rng.random(out=u)
        # Phase 1: every alive ball to a uniform current neighbor, via
        # the flat CSR view (vectorized gather):
        # dest = indices[indptr[owner] + min(int(u * deg), deg - 1)].
        deg = np.take(self.degs, owners, out=scratch("serve.deg", np.int64), mode="clip")
        np.multiply(u, deg, out=u)
        offs = scratch("serve.offs", np.int64)
        np.copyto(offs, u, casting="unsafe")  # truncates, as astype(int64)
        np.minimum(offs, np.subtract(deg, 1, out=deg), out=offs)
        edge = np.take(self.indptr, owners, out=deg, mode="clip")
        np.add(edge, offs, out=edge)
        dest = np.take(self.indices, edge, out=offs, mode="clip")
        received = np.bincount(dest, minlength=n_s).astype(np.int64, copy=False)
        # Phase 2: SAER rule.
        self.cum_received += received
        over = self.cum_received > self.capacity
        newly = over & ~self.burned
        accept = ~self.burned & ~over
        self.burned |= newly
        ok = np.take(accept, dest, out=scratch("serve.ok", np.bool_), mode="clip")
        # Phase 3: the assigned balls' outputs, then the survivors
        # compacted in place: survivor i goes to slot (survivors before
        # i) of a scratch row and every assigned ball to slot `kept`,
        # just past the survivors, so one put per table compacts it.
        servers = dest[ok]
        latencies = births[ok]
        np.subtract(t, latencies, out=latencies)
        tags = self._tags[:n][ok] if self._tags is not None else None
        kept = n - servers.size
        if kept:
            slot = scratch("serve.slot", np.int64)
            np.cumsum(np.logical_not(ok, out=scratch("serve.keep", np.bool_)), out=slot)
            np.subtract(slot, 1, out=slot)
            np.copyto(slot, kept, where=ok)
            packed = scratch("serve.packed", np.int64)
            for table in (self._owners, self._births, self._tags):
                if table is not None:
                    np.put(packed, slot, table[:n], mode="clip")
                    table[:kept] = packed[:kept]
        if not self.track_health:
            return servers.size, servers, latencies, tags, None, None
        accepted = np.bincount(servers, minlength=n_s).astype(np.int64, copy=False)
        return servers.size, servers, latencies, tags, received, accepted

    def _route_compiled(self, t: int):
        """The same round in one C call (the ``cext`` serving entry).

        The Generator's PCG64 state is copied in, stepped by exactly
        ``n_alive`` draws inside the call and written back, so churn and
        the next round continue the stream where :meth:`_route_numpy`
        would.  The outputs are copied out of the scratch rows, so no
        :class:`RoundOutcome` array aliases what the next round writes.
        """
        n = self.n_alive
        pcg = self.buffers.get("serve.pcg", (1, 4), np.uint64)
        _pcg64_load((self.rng,), pcg)
        out = self.buffers.get("serve.out", (3, n), np.int64)
        tags = self._tags[:n] if self._tags is not None else None
        received = accepted = None
        if self.track_health:
            received = np.zeros(self.n_servers, dtype=np.int64)
            accepted = np.zeros(self.n_servers, dtype=np.int64)
        asg = self._serve_fn(
            pcg, self._owners[:n], self._births[:n], tags, self.indptr,
            self.indices, self.cum_received, self.burned, self.capacity, t,
            out, received, accepted,
        )
        _pcg64_store((self.rng,), pcg)
        return (
            asg,
            out[0, :asg].copy(),
            out[1, :asg].copy(),
            out[2, :asg].copy() if tags is not None else None,
            received,
            accepted,
        )

    def evict_overdue(self, max_wait_rounds: int) -> tuple[np.ndarray, np.ndarray]:
        """Remove balls that survived ``max_wait_rounds`` routes unassigned.

        Returns ``(owners, tags)`` of the evicted balls (tags are ``-1``
        without tag tracking).  The live service resolves these as
        ``Retry`` so a stalled system (every server burned, recovery
        off) sheds load instead of accumulating futures forever.
        """
        if max_wait_rounds < 1:
            raise ServeError("max_wait_rounds must be >= 1")
        n = self.n_alive
        if n == 0:
            return _EMPTY_I64, _EMPTY_I64
        age = self.round_no - self._births[:n]
        stale = age >= max_wait_rounds
        if not stale.any():
            return _EMPTY_I64, _EMPTY_I64
        owners = self._owners[:n][stale].copy()
        tags = (
            self._tags[:n][stale].copy()
            if self._tags is not None
            else np.full(owners.size, -1, np.int64)
        )
        keep = ~stale
        kept = int(np.count_nonzero(keep))
        self._owners[:kept] = self._owners[:n][keep]
        self._births[:kept] = self._births[:n][keep]
        if self._tags is not None:
            self._tags[:kept] = self._tags[:n][keep]
        self.n_alive = kept
        return owners, tags

    # -- quarantine --------------------------------------------------------

    def _refilter(self) -> None:
        """Rebuild the routable neighborhoods = full lists − quarantined.

        Stranding guard: a client whose *entire* (non-empty) full
        neighborhood is quarantined keeps its full list — every ball
        that was routable stays routable, at the price of still sending
        to suspect servers.  ``tests/test_serve_chaos.py`` pins this as
        a property over random quarantine sets.
        """
        q = self.quarantined
        new_lists = []
        for nl in self._full_lists:
            kept = nl[~q[nl]] if nl.size else nl
            new_lists.append(kept if kept.size or not nl.size else nl.copy())
        self.neighbor_lists = new_lists
        self._rebuild_flat()

    def set_quarantine(self, servers) -> int:
        """Remove ``servers`` from every routable neighborhood.

        Idempotent, additive, and guarded against stranding (see
        :meth:`_refilter`).  Returns the number of servers newly
        quarantined.  The first call activates quarantine bookkeeping;
        until then (and again after every server is readmitted) the
        state runs the original zero-overhead path.
        """
        servers = np.atleast_1d(np.asarray(servers, dtype=np.int64))
        if servers.size and (servers.min() < 0 or servers.max() >= self.n_servers):
            raise ServeError("quarantine server index out of range")
        if self.quarantined is None:
            self.quarantined = np.zeros(self.n_servers, dtype=bool)
            self._full_lists = self.neighbor_lists
        newly = int(np.count_nonzero(~self.quarantined[servers]))
        if newly == 0:
            return 0
        self.quarantined[servers] = True
        self._refilter()
        return newly

    def readmit(self, servers) -> int:
        """Return quarantined ``servers`` to the routable pool.

        Returns the number actually readmitted.  When the quarantine
        set empties, the state collapses back to the untouched
        fast path (full lists become the routable lists again).
        """
        if self.quarantined is None:
            return 0
        servers = np.atleast_1d(np.asarray(servers, dtype=np.int64))
        if servers.size and (servers.min() < 0 or servers.max() >= self.n_servers):
            raise ServeError("readmit server index out of range")
        freed = int(np.count_nonzero(self.quarantined[servers]))
        if freed == 0:
            return 0
        self.quarantined[servers] = False
        if self.quarantined.any():
            self._refilter()
        else:
            self.neighbor_lists = self._full_lists
            self.quarantined = None
            self._full_lists = None
            self._rebuild_flat()
        return freed

    @property
    def quarantined_count(self) -> int:
        return int(np.count_nonzero(self.quarantined)) if self.quarantined is not None else 0

    @property
    def quarantined_fraction(self) -> float:
        return self.quarantined_count / self.n_servers if self.n_servers else 0.0

    # -- checkpoint / restore ----------------------------------------------

    def checkpoint(self) -> dict:
        """A picklable snapshot from which :meth:`from_checkpoint`
        resumes with bit-identical accounting.

        Captures every piece of mutable state — protocol counters, the
        alive-ball table, the churn-able neighborhoods (full and
        filtered), quarantine, the protocol RNG's bit-generator state,
        and the fault schedule plus its runtime RNG — but *not*
        execution details (kernel gate, scratch buffers), which the
        restoring host chooses.
        """
        n = self.n_alive
        return {
            "version": CHECKPOINT_VERSION,
            "c": self.params.c,
            "d": self.params.d,
            "recovery": self.recovery,
            "churn": self.churn,
            "n_clients": self.n_clients,
            "n_servers": self.n_servers,
            "neighbor_lists": [nl.copy() for nl in self.neighbor_lists],
            "full_lists": (
                [nl.copy() for nl in self._full_lists]
                if self._full_lists is not None
                else None
            ),
            "quarantined": (
                self.quarantined.copy() if self.quarantined is not None else None
            ),
            "cum_received": self.cum_received.copy(),
            "burned": self.burned.copy(),
            "burn_clock": self.burn_clock.copy(),
            "owners": self._owners[:n].copy(),
            "births": self._births[:n].copy(),
            "tags": self._tags[:n].copy() if self._tags is not None else None,
            "round_no": self.round_no,
            "dropped": self.dropped,
            "assigned_total": self.assigned_total,
            "rng_state": self.rng.bit_generator.state,
            "track_tags": self.track_tags,
            "track_health": self.track_health,
            "fault_schedule": self.faults.schedule if self.faults is not None else None,
            "fault_state": self.faults.state() if self.faults is not None else None,
            "byz_absorbed": self.byz_absorbed,
        }

    @classmethod
    def from_checkpoint(
        cls,
        ckpt: dict,
        *,
        kernel: str | None = None,
        buffers: EngineBuffers | None = None,
    ) -> "ServingState":
        """Rebuild a state that resumes exactly where ``ckpt`` left off."""
        try:
            version = ckpt["version"]
        except (TypeError, KeyError):
            raise CheckpointError("not a ServingState checkpoint payload") from None
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint version {version} != supported {CHECKPOINT_VERSION}"
            )
        self = cls.__new__(cls)
        self.params = ProtocolParams(c=ckpt["c"], d=ckpt["d"])
        self.capacity = self.params.capacity
        self.recovery = ckpt["recovery"]
        self.churn = ckpt["churn"]
        self.n_clients = int(ckpt["n_clients"])
        self.n_servers = int(ckpt["n_servers"])
        self.neighbor_lists = [np.asarray(nl) for nl in ckpt["neighbor_lists"]]
        self._full_lists = (
            [np.asarray(nl) for nl in ckpt["full_lists"]]
            if ckpt["full_lists"] is not None
            else None
        )
        self.quarantined = (
            np.asarray(ckpt["quarantined"]) if ckpt["quarantined"] is not None else None
        )
        self.track_tags = bool(ckpt["track_tags"])
        self.track_health = bool(ckpt["track_health"])
        self.buffers = buffers if buffers is not None else EngineBuffers()
        self._kern = resolve_kernel(kernel)
        self._serve_fn = self._kern.serve_round_fn()
        self.cum_received = np.array(ckpt["cum_received"], dtype=np.int64)
        self.burned = np.array(ckpt["burned"], dtype=bool)
        self.burn_clock = np.array(ckpt["burn_clock"], dtype=np.int64)
        owners = np.asarray(ckpt["owners"], dtype=np.int64)
        n = owners.size
        self._cap = max(1024, n)
        self._owners = np.empty(self._cap, dtype=np.int64)
        self._births = np.empty(self._cap, dtype=np.int64)
        self._owners[:n] = owners
        self._births[:n] = ckpt["births"]
        if self.track_tags:
            self._tags = np.empty(self._cap, dtype=np.int64)
            self._tags[:n] = ckpt["tags"]
        else:
            self._tags = None
        self.n_alive = n
        self.round_no = int(ckpt["round_no"])
        self.dropped = int(ckpt["dropped"])
        self.assigned_total = int(ckpt["assigned_total"])
        rng_state = ckpt["rng_state"]
        try:
            bitgen = getattr(np.random, rng_state["bit_generator"])()
            bitgen.state = rng_state
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            raise CheckpointError(f"cannot restore RNG state: {exc}") from None
        self.rng = np.random.Generator(bitgen)
        schedule = ckpt["fault_schedule"]
        if schedule is not None:
            self.faults = schedule.materialize(self.n_clients, self.n_servers)
            self.faults.set_state(ckpt["fault_state"])
        else:
            self.faults = None
        self.byz_absorbed = int(ckpt["byz_absorbed"])
        self._rebuild_flat()
        return self

    def save(self, path) -> None:
        """Pickle :meth:`checkpoint` to ``path``."""
        try:
            with open(path, "wb") as fh:
                pickle.dump(self.checkpoint(), fh)
        except OSError as exc:
            raise CheckpointError(f"cannot write checkpoint {path}: {exc}") from exc

    @classmethod
    def load(
        cls,
        path,
        *,
        kernel: str | None = None,
        buffers: EngineBuffers | None = None,
    ) -> "ServingState":
        """Restore a state pickled by :meth:`save`."""
        try:
            with open(path, "rb") as fh:
                ckpt = pickle.load(fh)
        except OSError as exc:
            raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
        except pickle.UnpicklingError as exc:
            raise CheckpointError(f"corrupt checkpoint {path}: {exc}") from exc
        return cls.from_checkpoint(ckpt, kernel=kernel, buffers=buffers)

    # -- diagnostics -------------------------------------------------------

    @property
    def backlog(self) -> int:
        """Alive (pending) balls after the last route."""
        return self.n_alive

    @property
    def alive_tags(self) -> np.ndarray:
        """Tags of the alive balls, in buffer order (empty without tag tracking)."""
        return self._tags[: self.n_alive] if self._tags is not None else _EMPTY_I64

    @property
    def burned_count(self) -> int:
        return int(np.count_nonzero(self.burned))

    @property
    def burned_fraction(self) -> float:
        return float(self.burned.mean()) if self.n_servers else 0.0

    @property
    def kernel_name(self) -> str:
        """Which round-kernel gate this state resolved to."""
        return self._kern.name

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ServingState(n_clients={self.n_clients}, n_servers={self.n_servers}, "
            f"round={self.round_no}, backlog={self.n_alive}, "
            f"burned={self.burned_count}, kernel={self._kern.name!r})"
        )
