"""Wire protocol of the serving layer: request/outcome types + NDJSON codec.

The front end is newline-delimited JSON over TCP (stdlib only — no new
dependencies): each line is one JSON object, requests flow client →
server, responses flow back with the request's ``id`` echoed so an
open-loop client can pipeline without waiting.  One ``assign`` request
may carry several balls; each ball gets its *own* response line (the
service completes per-ball futures, and the wire mirrors that).

Requests::

    {"op": "assign", "client": 17, "balls": 2, "id": "r1"}
    {"op": "metrics", "id": "m1"}        # text exposition
    {"op": "stats", "id": "s1"}          # metrics snapshot + server state
    {"op": "ping", "id": "p1"}

Responses::

    {"id": "r1", "ball": 0, "outcome": "assigned", "server": 431, "latency_rounds": 1}
    {"id": "r1", "ball": 1, "outcome": "retry", "reason": "timeout"}
    {"id": "r1", "ball": 2, "outcome": "dropped", "reason": "isolated-client"}
    {"id": "m1", "metrics": "# HELP ...\\n..."}
    {"id": "p1", "pong": true}
    {"id": "x9", "error": "unknown op 'frobnicate'"}

In-process callers never see JSON.  A caller holding per-ball futures
gets the same :class:`Assigned` / :class:`Retry` / :class:`Dropped`
objects from them; a columnar caller reads each round's
:class:`Outcomes` record, one row per resolved ball, with the outcome
and reason as small integer codes into :data:`OUTCOMES` and
:data:`REASONS`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PROTOCOL_VERSION",
    "AssignRequest",
    "Assigned",
    "Retry",
    "Dropped",
    "Outcomes",
    "OUTCOMES",
    "REASONS",
    "ProtocolError",
    "decode_request",
    "encode_response",
    "encode_outcome",
    "decode_response",
]

PROTOCOL_VERSION = 1

#: Outcome reasons used by the service.
REASON_ISOLATED = "isolated-client"
REASON_TIMEOUT = "timeout"
REASON_BACKPRESSURE = "backpressure"
REASON_SHUTDOWN = "shutdown"
REASON_BROWNOUT = "brownout"

#: Outcome codes of an :class:`Outcomes` record: ``OUTCOMES[code]``.
ASSIGNED, RETRY, DROPPED = 0, 1, 2
OUTCOMES = ("assigned", "retry", "dropped")
#: Reason codes of an :class:`Outcomes` record: ``REASONS[code]``; code 0
#: (no reason) marks an assignment.
REASONS = (
    "",
    REASON_ISOLATED,
    REASON_TIMEOUT,
    REASON_BACKPRESSURE,
    REASON_SHUTDOWN,
    REASON_BROWNOUT,
)
_REASON_CODE = {reason: code for code, reason in enumerate(REASONS)}


class ProtocolError(ValueError):
    """A malformed or unsupported wire message."""


@dataclass(frozen=True)
class AssignRequest:
    """A client asking for ``balls`` assignments from its neighborhood."""

    client: int
    balls: int = 1
    id: str | int | None = None

    def __post_init__(self) -> None:
        if self.client < 0:
            raise ProtocolError(f"client must be >= 0; got {self.client}")
        if self.balls < 1:
            raise ProtocolError(f"balls must be >= 1; got {self.balls}")


@dataclass(frozen=True)
class Assigned:
    """Ball accepted by ``server`` after waiting ``latency_rounds`` rounds."""

    server: int
    latency_rounds: int
    outcome = "assigned"


@dataclass(frozen=True)
class Retry:
    """Ball not served; the caller may resubmit (timeout, backpressure…)."""

    reason: str
    outcome = "retry"


@dataclass(frozen=True)
class Dropped:
    """Ball that can never be served (e.g. its client has no servers)."""

    reason: str
    outcome = "dropped"


@dataclass(frozen=True, eq=False)
class Outcomes:
    """Resolved balls as aligned arrays, one row per ball, in resolution order.

    ``tags`` (int64) name the balls; ``outcome`` (int8) and ``reason``
    (int8) are codes into :data:`OUTCOMES` and :data:`REASONS`;
    ``server`` and ``latency_rounds`` (int64) hold the assignment, and
    -1 on rows that are not assignments.
    """

    tags: np.ndarray
    outcome: np.ndarray
    server: np.ndarray
    latency_rounds: np.ndarray
    reason: np.ndarray

    def __len__(self) -> int:
        return self.tags.size

    def __getitem__(self, rows) -> "Outcomes":
        """The rows selected by a boolean mask or an index array."""
        return Outcomes(*(col[rows] for col in self.columns()))

    @classmethod
    def assigned(cls, tags, servers, latencies) -> "Outcomes":
        n = len(tags)
        return cls(
            np.asarray(tags, dtype=np.int64),
            np.full(n, ASSIGNED, dtype=np.int8),
            np.asarray(servers, dtype=np.int64),
            np.asarray(latencies, dtype=np.int64),
            np.zeros(n, dtype=np.int8),
        )

    @classmethod
    def unserved(cls, tags, outcome: int, reason: str) -> "Outcomes":
        """``tags`` resolved as ``Retry(reason)`` or ``Dropped(reason)``."""
        n = len(tags)
        return cls(
            np.asarray(tags, dtype=np.int64),
            np.full(n, outcome, dtype=np.int8),
            np.full(n, -1, dtype=np.int64),
            np.full(n, -1, dtype=np.int64),
            np.full(n, _REASON_CODE[reason], dtype=np.int8),
        )

    @classmethod
    def concat(cls, parts) -> "Outcomes":
        parts = [p for p in parts if len(p)]
        if len(parts) == 1:
            return parts[0]
        if not parts:
            return EMPTY_OUTCOMES
        return cls(*(np.concatenate(cols) for cols in zip(*(p.columns() for p in parts))))

    def columns(self) -> tuple[np.ndarray, ...]:
        """The five arrays, in field order (what a pipe or pickle carries)."""
        return self.tags, self.outcome, self.server, self.latency_rounds, self.reason

    def objects(self) -> list[Assigned | Retry | Dropped]:
        """Each row as the per-ball outcome object a future resolves to."""
        return [
            Assigned(server, latency) if code == ASSIGNED else _UNSERVED[code][reason]
            for code, server, latency, reason in zip(
                self.outcome.tolist(), self.server.tolist(),
                self.latency_rounds.tolist(), self.reason.tolist(),
            )
        ]


#: The shared Retry/Dropped object for each (outcome code, reason code).
_UNSERVED = {
    RETRY: [Retry(reason) for reason in REASONS],
    DROPPED: [Dropped(reason) for reason in REASONS],
}
EMPTY_OUTCOMES = Outcomes.assigned(
    np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
)


def decode_request(line: str | bytes) -> dict:
    """Parse one request line into a validated op dict.

    ``assign`` ops come back as ``{"op": "assign", "request":
    AssignRequest}``; control ops (``metrics`` / ``stats`` / ``ping``)
    as ``{"op": ..., "id": ...}``.  Raises :class:`ProtocolError` on
    garbage — the server answers those with an ``error`` line instead of
    dying.
    """
    try:
        msg = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"invalid JSON: {exc}") from None
    if not isinstance(msg, dict):
        raise ProtocolError("request must be a JSON object")
    op = msg.get("op")
    if op == "assign":
        try:
            client = int(msg["client"])
        except (KeyError, TypeError, ValueError):
            raise ProtocolError("assign needs an integer 'client'") from None
        try:
            balls = int(msg.get("balls", 1))
        except (TypeError, ValueError):
            raise ProtocolError("'balls' must be an integer") from None
        return {
            "op": "assign",
            "request": AssignRequest(client=client, balls=balls, id=msg.get("id")),
        }
    if op in ("metrics", "stats", "ping"):
        return {"op": op, "id": msg.get("id")}
    raise ProtocolError(f"unknown op {op!r}")


def encode_outcome(outcome: Assigned | Retry | Dropped) -> dict:
    """The outcome's wire fields (merged into a response line)."""
    if isinstance(outcome, Assigned):
        return {
            "outcome": "assigned",
            "server": int(outcome.server),
            "latency_rounds": int(outcome.latency_rounds),
        }
    if isinstance(outcome, (Retry, Dropped)):
        return {"outcome": outcome.outcome, "reason": outcome.reason}
    raise ProtocolError(f"unencodable outcome {outcome!r}")


def encode_response(payload: dict) -> bytes:
    """One response line, newline-terminated, compact separators."""
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode()


def decode_response(line: str | bytes) -> dict:
    """Parse a response line; ball outcomes get an ``"outcome"`` object.

    Used by the TCP load generator and by tests; ``assigned`` / ``retry``
    / ``dropped`` lines gain a decoded ``outcome_obj`` field.
    """
    try:
        msg = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"invalid JSON response: {exc}") from None
    if not isinstance(msg, dict):
        raise ProtocolError("response must be a JSON object")
    kind = msg.get("outcome")
    if kind == "assigned":
        msg["outcome_obj"] = Assigned(
            server=int(msg["server"]), latency_rounds=int(msg["latency_rounds"])
        )
    elif kind == "retry":
        msg["outcome_obj"] = Retry(reason=msg.get("reason", ""))
    elif kind == "dropped":
        msg["outcome_obj"] = Dropped(reason=msg.get("reason", ""))
    return msg
