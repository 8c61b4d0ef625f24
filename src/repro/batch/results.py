"""Per-trial result arrays for a batched Monte-Carlo execution."""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from ..core.config import ProtocolParams
from ..core.results import RunResult

__all__ = ["BatchResult", "ResultBlock", "SeedInfos"]


class SeedInfos(Sequence):
    """The ``repr`` of each seed of a :class:`~repro.rng.SeedBlock`,
    built on first read.  A block's elements are rebuilt from immutable
    fields, so a late ``repr`` is the one the run would have taken;
    equal to any sequence of the same strings."""

    def __init__(self, seeds: Sequence) -> None:
        self._seeds = seeds
        self._strings: list[str] | None = None

    def _list(self) -> list[str]:
        if self._strings is None:
            self._strings = [repr(s) for s in self._seeds]
        return self._strings

    def __getitem__(self, i):
        return self._list()[i]

    def __len__(self) -> int:
        return len(self._seeds)

    def __eq__(self, other) -> bool:
        if isinstance(other, (SeedInfos, list, tuple)):
            return self._list() == list(other)
        return NotImplemented


@dataclass
class BatchResult:
    """Outcome of ``R`` independent trials run by the batched engine.

    Scalar fields of :class:`~repro.core.results.RunResult` that vary per
    trial become length-``R`` arrays here; fields that are shared by
    construction (graph, parameters, total balls) stay scalar.  Trial
    ``r`` of a batch is, by the equivalence contract of
    :mod:`repro.batch.engine`, identical to the
    :class:`~repro.core.results.RunResult` the reference engine produces
    for the same seed — :meth:`to_run_results` materializes exactly those
    records.

    Attributes
    ----------
    completed, rounds, work, assigned_balls, max_load, blocked_servers:
        Per-trial arrays, shape ``[R]``; semantics per field match
        :class:`~repro.core.results.RunResult`.
    loads:
        Optional ``[R, n_servers]`` final load matrix (row ``r`` is trial
        ``r``'s per-server loads).
    seed_infos:
        Per-trial provenance strings (mirrors ``RunResult.seed_info``);
        for a run seeded by a :class:`~repro.rng.SeedBlock`, a
        :class:`SeedInfos` that builds them on first read.
    """

    protocol: str
    graph_name: str
    n_clients: int
    n_servers: int
    params: ProtocolParams
    n_trials: int
    completed: np.ndarray
    rounds: np.ndarray
    work: np.ndarray
    total_balls: int
    assigned_balls: np.ndarray
    max_load: np.ndarray
    blocked_servers: np.ndarray
    loads: Optional[np.ndarray] = field(default=None, repr=False)
    seed_infos: Optional[Sequence[str]] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        for name in ("completed", "rounds", "work", "assigned_balls", "max_load", "blocked_servers"):
            arr = getattr(self, name)
            if arr.shape != (self.n_trials,):
                raise ValueError(
                    f"{name} must have shape ({self.n_trials},); got {arr.shape}"
                )
        if np.any(self.assigned_balls > self.total_balls) or np.any(self.assigned_balls < 0):
            raise ValueError("ball accounting broken: assigned outside [0, total]")
        if self.loads is not None and self.loads.shape != (self.n_trials, self.n_servers):
            raise ValueError(
                f"loads must have shape ({self.n_trials}, {self.n_servers}); "
                f"got {self.loads.shape}"
            )

    def __len__(self) -> int:
        return self.n_trials

    @property
    def alive_balls(self) -> np.ndarray:
        """Per-trial leftover balls (``total - assigned``)."""
        return self.total_balls - self.assigned_balls

    @property
    def completion_rate(self) -> float:
        """Fraction of trials that assigned every ball within the cap."""
        return float(self.completed.mean()) if self.n_trials else 0.0

    def to_run_results(self) -> list[RunResult]:
        """Materialize one :class:`RunResult` per trial (the adapter)."""
        out = []
        for r in range(self.n_trials):
            out.append(
                RunResult(
                    protocol=self.protocol,
                    graph_name=self.graph_name,
                    n_clients=self.n_clients,
                    n_servers=self.n_servers,
                    params=self.params,
                    completed=bool(self.completed[r]),
                    rounds=int(self.rounds[r]),
                    work=int(self.work[r]),
                    total_balls=self.total_balls,
                    assigned_balls=int(self.assigned_balls[r]),
                    alive_balls=int(self.total_balls - self.assigned_balls[r]),
                    max_load=int(self.max_load[r]),
                    blocked_servers=int(self.blocked_servers[r]),
                    loads=self.loads[r].copy() if self.loads is not None else None,
                    seed_info=self.seed_infos[r] if self.seed_infos else "",
                )
            )
        return out

    def summary(self) -> dict:
        """Flat aggregate dict (medians/means over trials) for tables."""
        rounds_done = self.rounds[self.completed]
        return {
            "protocol": self.protocol,
            "graph": self.graph_name,
            "n": self.n_clients,
            "c": self.params.c,
            "d": self.params.d,
            "trials": self.n_trials,
            "completion_rate": round(self.completion_rate, 4),
            "rounds_median": float(np.median(rounds_done)) if rounds_done.size else None,
            "rounds_max": int(self.rounds.max()) if self.n_trials else 0,
            "work_mean": float(self.work.mean()) if self.n_trials else 0.0,
            "max_load_worst": int(self.max_load.max()) if self.n_trials else 0,
            "capacity": self.params.capacity,
            "blocked_servers_mean": float(self.blocked_servers.mean()) if self.n_trials else 0.0,
        }


def _pyvalue(v):
    """numpy scalar → native python scalar (dicts stay json/printable)."""
    return v.item() if isinstance(v, np.generic) else v


def _column(values: list) -> np.ndarray:
    """A typed column for homogeneous values, object dtype otherwise.

    Integer columns are narrowed to the smallest dtype that holds their
    range: pickle encodes small python ints in 2-5 bytes, so an int64
    column would *grow* the wire payload the spool exists to shrink.
    Floats keep full precision.
    """
    try:
        arr = np.asarray(values)
    except (ValueError, TypeError):
        arr = None
    if arr is None or arr.dtype.kind in "OUSV" or arr.ndim != 1:
        arr = np.empty(len(values), dtype=object)
        arr[:] = values
        return arr
    if arr.dtype.kind in "iu" and arr.size:
        lo, hi = int(arr.min()), int(arr.max())
        for dt in (np.int8, np.int16, np.int32, np.int64):
            info = np.iinfo(dt)
            if info.min <= lo and hi <= info.max:
                return arr.astype(dt, copy=False)
    return arr


@dataclass
class ResultBlock:
    """One sweep point's trial records as typed columns.

    What every sweep task returns: instead of shipping ``R`` per-trial
    dicts back from a worker (each pickled key by key), a task returns
    one :class:`ResultBlock` — the shared point parameters once, the
    trial indices, and a structured array holding the per-trial fields
    as typed columns.  The parent side assembles blocks into a single
    columnar table (:func:`repro.parallel.aggregate.assemble_blocks`)
    or spools them to disk; dicts are materialized lazily only where
    record consumers need them.

    Attributes
    ----------
    point:
        The sweep-point parameters shared by every row of the block.
    trials:
        Trial indices, shape ``[R]``.
    data:
        Structured array, shape ``[R]``, one field per record key.
    """

    point: dict
    trials: np.ndarray
    data: np.ndarray

    def __post_init__(self) -> None:
        self.trials = np.asarray(self.trials, dtype=np.int64)
        if self.data.shape != self.trials.shape:
            raise ValueError(
                f"data shape {self.data.shape} disagrees with "
                f"trials shape {self.trials.shape}"
            )

    @classmethod
    def from_records(
        cls, point: Mapping, trials: Sequence[int], records: Sequence[Mapping]
    ) -> "ResultBlock":
        """Pack per-trial record dicts into a block.

        Columns cover the union of the records' keys (first-seen
        order); a record missing a key contributes ``None`` there — the
        one place columns differ from dicts, where the key would simply
        be absent (aggregation drops ``None`` either way).
        """
        records = list(records)
        if len(records) != len(trials):
            raise ValueError(
                f"{len(records)} records for {len(trials)} trials"
            )
        keys: list[str] = []
        for r in records:
            for k in r:
                if k not in keys:
                    keys.append(k)
        cols = {k: _column([r.get(k) for r in records]) for k in keys}
        dtype = np.dtype([(k, cols[k].dtype) for k in keys])
        data = np.empty(len(records), dtype=dtype)
        for k in keys:
            data[k] = cols[k]
        return cls(point=dict(point), trials=np.asarray(list(trials)), data=data)

    @classmethod
    def from_columns(
        cls, point: Mapping, trials: Sequence[int], columns: Mapping[str, Sequence]
    ) -> "ResultBlock":
        """Pack per-trial *columns* into a block — no per-dict loop.

        The columnar fast path for workers that already hold their
        results as arrays (e.g. straight off a
        :class:`~repro.batch.results.BatchResult`): each value is a
        length-``R`` array-like; integer columns are range-narrowed
        exactly as in :meth:`from_records`.  Key order becomes field
        order.
        """
        trials = np.asarray(list(trials))
        cols = {k: _column(v) for k, v in columns.items()}
        for k, col in cols.items():
            if col.shape != trials.shape:
                raise ValueError(
                    f"column {k!r} has shape {col.shape}; expected {trials.shape}"
                )
        dtype = np.dtype([(k, col.dtype) for k, col in cols.items()])
        data = np.empty(trials.size, dtype=dtype)
        for k, col in cols.items():
            data[k] = col
        return cls(point=dict(point), trials=trials, data=data)

    @property
    def n_trials(self) -> int:
        return int(self.trials.size)

    def __len__(self) -> int:
        return self.n_trials

    @property
    def fields(self) -> list[str]:
        """Per-trial field names (the structured dtype's columns)."""
        return list(self.data.dtype.names or ())

    def to_structured(self) -> np.ndarray:
        """The per-trial fields as a structured array (zero-copy)."""
        return self.data

    @classmethod
    def from_structured(
        cls, point: Mapping, trials: Sequence[int], data: np.ndarray
    ) -> "ResultBlock":
        """Wrap an existing structured array (zero-copy) as a block."""
        return cls(point=dict(point), trials=np.asarray(list(trials)), data=data)

    # -- durable-spool payload (npz-safe, no pickle) ------------------------

    def to_payload(self) -> dict[str, np.ndarray]:
        """The block as plain named arrays, safe for ``np.savez`` without pickle.

        The on-disk shape of the durable result spool
        (:mod:`repro.durable.spool`): the point parameters as one JSON
        string, the trial indices, the field order, and one array per
        field.  Object-dtype columns (ragged/mixed values) are
        JSON-encoded element-wise into unicode arrays — ``allow_pickle``
        stays off, so a torn or hostile block file can fail a checksum
        but never execute anything on load.
        """
        payload: dict[str, np.ndarray] = {
            "point": np.str_(json.dumps({k: _pyvalue(v) for k, v in self.point.items()})),
            "trials": self.trials,
            "field_names": np.asarray(self.fields, dtype="U64"),
        }
        json_fields = []
        for name in self.fields:
            col = self.data[name]
            if col.dtype.kind == "O":
                json_fields.append(name)
                col = np.asarray([json.dumps(_pyvalue(v)) for v in col])
            payload[f"field:{name}"] = col
        payload["json_fields"] = np.asarray(json_fields, dtype="U64")
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping[str, np.ndarray]) -> "ResultBlock":
        """Rebuild a block written by :meth:`to_payload` (inverse, exact).

        Field order, dtypes, and values round-trip: typed columns come
        back verbatim, JSON-encoded object columns decode back to
        object dtype.
        """
        point = json.loads(str(payload["point"]))
        trials = np.asarray(payload["trials"], dtype=np.int64)
        names = [str(n) for n in np.asarray(payload["field_names"])]
        json_fields = {str(n) for n in np.asarray(payload["json_fields"])}
        cols: dict[str, np.ndarray] = {}
        for name in names:
            col = np.asarray(payload[f"field:{name}"])
            if name in json_fields:
                decoded = np.empty(col.size, dtype=object)
                decoded[:] = [json.loads(str(v)) for v in col]
                col = decoded
            cols[name] = col
        dtype = np.dtype([(n, cols[n].dtype) for n in names])
        data = np.empty(trials.size, dtype=dtype)
        for n in names:
            data[n] = cols[n]
        return cls(point=point, trials=trials, data=data)
