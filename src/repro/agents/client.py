"""The client entity of model M.

A client owns a local label set of balls, knows only its own
neighborhood (a local link labeling — it addresses servers by *link
index*, not by any global ID), and needs no global parameters: in
particular it never learns ``c`` (remark (ii) after Algorithm 1).
"""

from __future__ import annotations

import math

import numpy as np

from .messages import BallRequest, Reply

__all__ = ["ClientAgent"]


class ClientAgent:
    """One client ``v ∈ C`` with up to ``d`` balls.

    Parameters
    ----------
    client_id:
        The simulation's routing handle for this client (not used by the
        protocol logic itself).
    n_links:
        Size of the local link table, ``Δ_v``.  The client draws a link
        index uniformly in ``[0, Δ_v)`` per alive ball per round.
    demand:
        Number of balls this client starts with (``≤ d``).
    """

    def __init__(self, client_id: int, n_links: int, demand: int):
        if demand > 0 and n_links <= 0:
            raise ValueError(f"client {client_id} has balls but no links")
        self.client_id = client_id
        self.n_links = n_links
        # Alive ball slots in ascending local-label order; this ordering
        # is part of the canonical tape order (see repro.core.engine).
        self.alive_slots: list[int] = list(range(demand))
        self.done = demand == 0

    # -- Phase 1 -----------------------------------------------------------

    def phase1(self, uniforms: np.ndarray) -> list[tuple[int, BallRequest]]:
        """Pick a link per alive ball from pre-drawn uniforms.

        Returns ``(link_index, request)`` pairs; the network resolves
        link indices to actual servers (the client itself has no global
        server names).  ``uniforms`` must have exactly one value per
        alive ball, in slot order.
        """
        if len(uniforms) != len(self.alive_slots):
            raise ValueError(
                f"client {self.client_id}: got {len(uniforms)} uniforms "
                f"for {len(self.alive_slots)} alive balls"
            )
        out: list[tuple[int, BallRequest]] = []
        for u, slot in zip(uniforms, self.alive_slots):
            link = min(int(math.floor(float(u) * self.n_links)), self.n_links - 1)
            out.append((link, BallRequest(client_id=self.client_id, ball_slot=slot)))
        return out

    @property
    def n_alive(self) -> int:
        return len(self.alive_slots)

    # -- Phase 2 -----------------------------------------------------------

    def receive_replies(self, replies: list[Reply]) -> int:
        """Process this round's 1-bit replies; returns balls newly assigned.

        Line 18-22 of Algorithm 1: update ``d_out`` and enter the
        ``done`` state when every ball has been placed.
        """
        accepted = {r.ball_slot for r in replies if r.accept}
        if accepted:
            self.alive_slots = [s for s in self.alive_slots if s not in accepted]
        if not self.alive_slots:
            self.done = True
        return len(accepted)
