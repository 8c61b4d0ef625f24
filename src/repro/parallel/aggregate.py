"""Aggregation of sweep results into table rows.

Every plan run returns a :class:`ResultTable`: one typed array per
field, assembled from the :class:`~repro.batch.results.ResultBlock`
blocks the sweep workers return.  A table quacks like a read-only list
of dicts (rows are materialized lazily), and exposes its typed columns
for vectorized row assembly; :func:`aggregate_records` groups any
sequence of record dicts, a table included.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Iterable, Mapping, Sequence

import numpy as np
# np.median's NaN check imports numpy.ma on its first call; load it with
# this module instead, so no summarize() call pays for it mid-run.
import numpy.ma  # noqa: F401

from ..batch.results import _pyvalue

__all__ = [
    "summarize",
    "aggregate_records",
    "ResultTable",
    "assemble_blocks",
]


def summarize(values: Iterable[float]) -> dict:
    """Summary statistics of a sample: mean, std, quantiles, 95% CI.

    The CI half-width uses the normal approximation
    ``1.96·s/√n`` — adequate for the trial counts experiments use (≥10)
    and cheap; use :func:`repro.analysis.stats.bootstrap_ci` when the
    statistic is a quantile or the sample is tiny.  Accepts any
    iterable, including a typed :class:`ResultTable` column (no
    python-list round-trip then).
    """
    if not isinstance(values, np.ndarray):
        values = list(values)
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return {
            "n": 0,
            "mean": math.nan,
            "std": math.nan,
            "min": math.nan,
            "median": math.nan,
            "max": math.nan,
            "q10": math.nan,
            "q90": math.nan,
            "ci95": math.nan,
        }
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return {
        "n": int(arr.size),
        "mean": float(arr.mean()),
        "std": std,
        "min": float(arr.min()),
        "median": float(np.median(arr)),
        "max": float(arr.max()),
        "q10": float(np.quantile(arr, 0.10)),
        "q90": float(np.quantile(arr, 0.90)),
        "ci95": 1.96 * std / math.sqrt(arr.size) if arr.size > 1 else 0.0,
    }


def _missing_part(count: int) -> np.ndarray:
    """A ``None``-filled object column segment for an absent field."""
    part = np.empty(count, dtype=object)
    part[:] = None
    return part


def _concat_parts(parts: Sequence[np.ndarray], n: int) -> np.ndarray:
    """Concatenate column segments, degrading to object dtype when mixed."""
    try:
        return np.concatenate(parts)
    except (TypeError, ValueError):
        col = np.empty(n, dtype=object)
        pos = 0
        for part in parts:
            col[pos : pos + part.size] = list(part)
            pos += part.size
        return col


class ResultTable(Sequence):
    """Columnar sweep results that behave like a list of record dicts.

    ``table[i]`` materializes row ``i`` as a plain dict (python
    scalars), ``table.column(name)`` exposes the typed column array
    for vectorized consumers.  Built from worker-side
    :class:`~repro.batch.results.ResultBlock` blocks
    (:meth:`from_blocks`).
    """

    def __init__(self, columns: dict[str, np.ndarray], n_rows: int):
        for name, col in columns.items():
            if col.shape != (n_rows,):
                raise ValueError(
                    f"column {name!r} has shape {col.shape}; expected ({n_rows},)"
                )
        self._columns = columns
        self._n = int(n_rows)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_blocks(cls, blocks: Sequence) -> "ResultTable":
        """Assemble per-point :class:`ResultBlock` s into one table.

        Point keys come first (in the first block's order), then
        ``trial``, then the per-trial fields — the key order of
        ``{**point, "trial": t, **record}``.
        """
        blocks = list(blocks)
        n = sum(b.n_trials for b in blocks)
        columns: dict[str, np.ndarray] = {}
        if not blocks:
            return cls(columns, 0)
        point_keys: list[str] = []
        for b in blocks:
            for k in b.point:
                if k not in point_keys:
                    point_keys.append(k)
        for k in point_keys:
            parts = [np.full(b.n_trials, b.point.get(k)) for b in blocks]
            try:
                col = np.concatenate(parts) if parts else np.empty(0)
                if col.dtype.kind in "OUSV":
                    raise TypeError
            except (TypeError, ValueError):
                col = np.empty(n, dtype=object)
                pos = 0
                for b in blocks:
                    col[pos : pos + b.n_trials] = [b.point.get(k)] * b.n_trials
                    pos += b.n_trials
            columns[k] = col
        columns["trial"] = np.concatenate([b.trials for b in blocks])
        field_names: list[str] = []
        for b in blocks:
            for k in b.fields:
                if k not in field_names:
                    field_names.append(k)
        for k in field_names:
            # A block lacking the field contributes None — unless the
            # name is also one of its point keys (records that echo
            # their point params), where the point value is the honest
            # fill; durable failure blocks rely on this to keep their
            # grid params in the quarantine row.
            parts = [
                np.asarray(b.data[k])
                if k in b.fields
                else (
                    np.full(b.n_trials, b.point[k])
                    if k in b.point
                    else _missing_part(b.n_trials)
                )
                for b in blocks
            ]
            columns[k] = _concat_parts(parts, n)
        return cls(columns, n)

    # -- columnar access ---------------------------------------------------

    @property
    def columns(self) -> dict[str, np.ndarray]:
        return dict(self._columns)

    @property
    def fields(self) -> list[str]:
        return list(self._columns)

    def column(self, name: str) -> np.ndarray:
        return self._columns[name]

    def where(self, **conditions) -> "ResultTable":
        """Rows whose columns equal the given values, as a new table.

        The columnar replacement for ``[r for r in recs if r[k] == v]``
        bucket loops: ``table.where(n=1024, c=1.5)`` filters every
        column by the conjunction of the equalities.
        """
        mask = np.ones(self._n, dtype=bool)
        for name, want in conditions.items():
            col = self._columns[name]
            if col.dtype == object:
                mask &= np.fromiter(
                    (v == want for v in col), dtype=bool, count=self._n
                )
            else:
                mask &= col == want
        columns = {k: c[mask] for k, c in self._columns.items()}
        return ResultTable(columns, int(np.count_nonzero(mask)))

    @property
    def nbytes(self) -> int:
        return sum(c.nbytes for c in self._columns.values())

    # -- sequence-of-dicts compatibility -----------------------------------

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(self._n))]
        if i < 0:
            i += self._n
        if not 0 <= i < self._n:
            raise IndexError(i)
        return {k: _pyvalue(col[i]) for k, col in self._columns.items()}

    def to_records(self) -> list[dict]:
        return [self[i] for i in range(self._n)]

    def equals(self, other) -> bool:
        """Row-for-row value equality with any record carrier.

        Compares materialized rows (python scalars), not column dtypes
        — the library's bit-identity contract is about record *values*,
        and equal values may ride in differently-narrowed columns
        depending on whether a table was assembled from blocks or
        records.  ``other`` may be a :class:`ResultTable` or a plain
        record list.
        """
        if isinstance(other, ResultTable):
            if len(self) != len(other) or self.fields != other.fields:
                return False
            other = other.to_records()
        else:
            other = list(other)
            if len(self) != len(other):
                return False
        return self.to_records() == [dict(r) for r in other]

    def __repr__(self) -> str:
        return f"ResultTable(rows={self._n}, fields={list(self._columns)})"


def assemble_blocks(blocks: Sequence) -> ResultTable:
    """Worker blocks → one columnar :class:`ResultTable`."""
    return ResultTable.from_blocks(blocks)


def aggregate_records(
    records: Sequence[Mapping],
    group_by: Sequence[str],
    fields: Sequence[str],
) -> list[dict]:
    """Group flat records and summarize numeric fields per group.

    Returns one row per distinct ``group_by`` tuple (in first-seen
    order) with columns ``{field}_{stat}`` for each requested field plus
    the grouping keys.  Boolean fields aggregate to their mean (i.e. a
    rate), which is how completion rates are reported.

    A :class:`ResultTable` input is read row by row.
    """
    groups: dict[tuple, list[Mapping]] = defaultdict(list)
    order: list[tuple] = []
    for rec in records:
        key = tuple(rec[k] for k in group_by)
        if key not in groups:
            order.append(key)
        groups[key].append(rec)
    rows: list[dict] = []
    for key in order:
        bucket = groups[key]
        row: dict = dict(zip(group_by, key))
        row["trials"] = len(bucket)
        for f in fields:
            vals = [float(rec[f]) for rec in bucket if rec.get(f) is not None]
            stats = summarize(vals)
            row[f"{f}_mean"] = stats["mean"]
            row[f"{f}_median"] = stats["median"]
            row[f"{f}_max"] = stats["max"]
            row[f"{f}_ci95"] = stats["ci95"]
        rows.append(row)
    return rows
