"""Aggregation of trial records into table rows.

Two record carriers flow through this module:

* plain ``list[dict]`` — the legacy per-(point, trial) records;
* :class:`ResultTable` — the columnar results spool: one typed array
  per field, assembled from the :class:`~repro.batch.results.ResultBlock`
  blocks that batched sweep workers return.  A table quacks like a
  read-only list of dicts (rows are materialized lazily), so every
  legacy consumer keeps working, while :func:`aggregate_records` gets a
  vectorized group-by fast path over the columns.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Iterable, Mapping, Sequence

import numpy as np
# np.median's NaN check imports numpy.ma on its first call; load it with
# this module instead, so no summarize() call pays for it mid-run.
import numpy.ma  # noqa: F401

from ..batch.results import _column, _pyvalue

__all__ = [
    "summarize",
    "aggregate_records",
    "ResultTable",
    "assemble_blocks",
    "as_table",
]


def _stats_from_array(arr: np.ndarray) -> dict:
    """The :func:`summarize` statistics for an already-float64 sample."""
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
    return _stats_from_array(np.asarray(values, dtype=np.float64))


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
    for vectorized consumers.  Built either from worker-side
    :class:`~repro.batch.results.ResultBlock` blocks
    (:meth:`from_blocks`) or from legacy record dicts
    (:meth:`from_records`).
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
        ``trial``, then the per-trial fields — matching the key order
        of the legacy record dicts so materialized rows are
        indistinguishable.
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

    @classmethod
    def from_records(cls, records: Sequence[Mapping]) -> "ResultTable":
        """Columnarize legacy record dicts (parent-side assembly)."""
        records = list(records)
        keys: list[str] = []
        for r in records:
            for k in r:
                if k not in keys:
                    keys.append(k)
        columns = {k: _column([r.get(k) for r in records]) for k in keys}
        return cls(columns, len(records))

    @classmethod
    def concat(cls, tables: Sequence["ResultTable"]) -> "ResultTable":
        """Stack tables row-wise (column union, first-seen order).

        A table missing a column contributes ``None`` there (object
        dtype), mirroring :meth:`from_blocks`' ragged-field handling.
        """
        tables = list(tables)
        if not tables:
            return cls({}, 0)
        names: list[str] = []
        for t in tables:
            for k in t.fields:
                if k not in names:
                    names.append(k)
        n = sum(len(t) for t in tables)
        columns: dict[str, np.ndarray] = {}
        for k in names:
            parts = [
                t._columns[k] if k in t._columns else _missing_part(len(t))
                for t in tables
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


def as_table(records) -> ResultTable:
    """Coerce any record carrier to a :class:`ResultTable`.

    Tables pass through untouched; record lists are columnarized.  The
    entry every row-assembly consumer uses so it can work on typed
    columns regardless of the ``results=`` mode a sweep ran under.
    """
    if isinstance(records, ResultTable):
        return records
    return ResultTable.from_records(list(records))


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

    A :class:`ResultTable` input takes a vectorized group-by over the
    typed columns instead of iterating dicts; both paths produce
    identical rows.
    """
    if isinstance(records, ResultTable):
        try:
            return _aggregate_table(records, group_by, fields)
        except TypeError:
            # un-sortable object columns: fall back to the dict path
            pass
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


def _aggregate_table(
    table: ResultTable, group_by: Sequence[str], fields: Sequence[str]
) -> list[dict]:
    """Vectorized group-by over a columnar table (first-seen order)."""
    n = len(table)
    if n == 0:
        return []
    # Factorize each key column, then combine into one group code.
    codes = np.zeros(n, dtype=np.int64)
    key_columns = []
    for name in group_by:
        col = table.column(name)
        uniq, inv = np.unique(col, return_inverse=True)
        codes = codes * len(uniq) + inv
        key_columns.append(col)
    _uniq_codes, first_idx, inv = np.unique(codes, return_index=True, return_inverse=True)
    # Rank groups by first appearance so row order matches the dict path.
    seen_order = np.argsort(first_idx, kind="stable")
    rank = np.empty_like(seen_order)
    rank[seen_order] = np.arange(seen_order.size)
    group_of_row = rank[inv]
    perm = np.argsort(group_of_row, kind="stable")  # rows grouped, original order kept
    counts = np.bincount(group_of_row, minlength=seen_order.size)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    first_rows = first_idx[seen_order]

    field_vals = {}
    for f in fields:
        if f not in table.fields:
            # dict path treats a missing field as None everywhere
            field_vals[f] = (np.empty(0, dtype=np.float64), np.zeros(n, dtype=bool))
            continue
        col = table.column(f)
        if col.dtype == object:
            colp = col[perm]
            keep = np.array([v is not None for v in colp], dtype=bool)
            vals = np.array([float(v) for v in colp[keep]], dtype=np.float64)
            field_vals[f] = (vals, keep)
        else:
            field_vals[f] = (col[perm].astype(np.float64, copy=False), None)

    rows: list[dict] = []
    for g in range(seen_order.size):
        lo, hi = starts[g], starts[g] + counts[g]
        row: dict = {
            name: _pyvalue(col[first_rows[g]])
            for name, col in zip(group_by, key_columns)
        }
        row["trials"] = int(counts[g])
        for f in fields:
            vals, keep = field_vals[f]
            if keep is None:
                seg = vals[lo:hi]
            else:
                # object column: vals holds only the non-None entries in
                # permuted order — recover this group's slice via keep.
                offset = int(np.count_nonzero(keep[:lo]))
                seg = vals[offset : offset + int(np.count_nonzero(keep[lo:hi]))]
            stats = _stats_from_array(seg)
            row[f"{f}_mean"] = stats["mean"]
            row[f"{f}_median"] = stats["median"]
            row[f"{f}_max"] = stats["max"]
            row[f"{f}_ci95"] = stats["ci95"]
        rows.append(row)
    return rows
