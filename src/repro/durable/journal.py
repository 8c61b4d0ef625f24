"""The durable run's journal: plan fingerprints + a JSONL progress log.

A durable sweep records its progress in ``journal.jsonl`` inside the
spool directory: one **header** line identifying the plan, then one
line per finished grid point — a ``block`` line pointing at the
checksummed block file the point's results were spooled to, or a
``failure`` line quarantining a poison point.  The journal is
append-only and crash-tolerant by construction:

* every line is a self-contained JSON object, flushed and fsync'd
  before the write returns, so a SIGKILL can at worst tear the final
  line — and :func:`read_journal` drops unparseable lines instead of
  refusing the file;
* entries are keyed by grid-point index with last-entry-wins, so a
  point journaled twice (e.g. written, lost to a torn block, re-run on
  resume) resolves to its latest state.

The **fingerprint** is what makes a journal resumable *safely*: a
sha256 over the canonicalized axes of the :class:`~repro.plan.RunPlan`
that can change result *bits* — grid points, trial count, seed lineage,
backend, graph provisioning, the work's name.  Axes the library pins as
bit-identical (kernel choice, thread budget, process count) are
deliberately excluded, so a run spooled under
``kernel="numpy"`` can resume under ``kernel="cext"`` — the parity
goldens guarantee the spliced rows match.  A resume whose plan hashes
differently raises :class:`~repro.errors.ResumeMismatchError` rather
than silently splicing two computations into one table.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import warnings
from pathlib import Path
from typing import Mapping

import numpy as np

from ..errors import SpoolCorruptError

__all__ = [
    "JOURNAL_NAME",
    "JOURNAL_VERSION",
    "plan_fingerprint",
    "seed_token",
    "JournalWriter",
    "read_journal",
]

JOURNAL_NAME = "journal.jsonl"
JOURNAL_VERSION = 1


# ---------------------------------------------------------------------------
# Canonicalization + fingerprint
# ---------------------------------------------------------------------------


def _json_sanitize(value):
    """numpy scalars → python scalars, recursively (json won't take np.int64)."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, Mapping):
        return {str(k): _json_sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_sanitize(v) for v in value]
    return value


def seed_token(seeds) -> object | None:
    """A JSON-stable token for a :class:`~repro.plan.SeedSpec`'s lineage.

    ``None`` means the spec draws OS entropy somewhere — not
    reproducible, so not spoolable (a resumed run could never match the
    interrupted one bit for bit).
    """
    from ..graphs.io import _canonical_seed

    if seeds.seeds is not None:
        toks = [_canonical_seed(s) for s in seeds.seeds]
        if any(t is None for t in toks):
            return None
        # The derivation mode changes bits even for explicit seeds
        # ("direct" hands each seed to the trial unsplit), so it must be
        # part of the token.  Keep the historical 2-element shape for
        # "pair" so pre-existing spools still resume.
        if seeds.mode == "pair":
            return ["explicit", toks]
        return ["explicit", toks, seeds.mode]
    if seeds.root is None:
        return None
    tok = _canonical_seed(seeds.root)
    if tok is None:
        return None
    return ["root", tok, seeds.mode]


def _graph_token(graph) -> object:
    """Identity token for a pinned topology: CSR content hash when possible."""
    hasher = hashlib.sha256()
    arrays = [
        getattr(graph, name, None)
        for name in ("client_indptr", "client_indices", "server_indptr", "server_indices")
    ]
    if all(a is not None for a in arrays):
        for a in arrays:
            hasher.update(np.ascontiguousarray(a).tobytes())
        return ["csr", hasher.hexdigest()]
    return [
        "meta",
        getattr(graph, "name", "?"),
        int(getattr(graph, "n_clients", -1)),
        int(getattr(graph, "n_servers", -1)),
    ]


def _callable_token(fn) -> str:
    return f"{getattr(fn, '__module__', '?')}.{getattr(fn, '__qualname__', repr(fn))}"


def plan_fingerprint(plan) -> str:
    """sha256 hex of the plan axes that determine result bits.

    Included: grid points (values and order), trials, seed lineage and
    mode, backend name (reference and batched condition a point's
    trials on different graph draws), graph provisioning class (pinned
    topology identity; generated and cached graphs hash alike — the
    cache is bit-transparent), and the work's name.

    Excluded on purpose, because the library pins them bit-identical:
    kernel choice, kernel threads and process count — a spool written
    serially under the numpy kernel resumes under a pooled cext run.
    """
    if plan.graph.graph is not None:
        graph_tok = ["pinned", _graph_token(plan.graph.graph)]
    else:
        graph_tok = ["generated"]
    payload = {
        "v": JOURNAL_VERSION,
        "work": plan.work.name or _callable_token(plan.work.record),
        "points": _json_sanitize(plan.points()),
        "trials": int(plan.trials),
        "seeds": seed_token(plan.seeds),
        "backend": plan.backend.name,
        "graph": graph_tok,
    }
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# The JSONL journal
# ---------------------------------------------------------------------------


class JournalWriter:
    """Append-only JSONL journal with per-line durability.

    Each :meth:`append` serializes one entry, writes it with a trailing
    newline, flushes, and fsyncs — after a crash the journal is intact
    up to (at worst) one torn final line.
    """

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # A SIGKILL can leave the file ending mid-line; terminate that
        # torn tail before appending, or the next entry would merge
        # into it and both lines would be lost to the reader.
        if self.path.exists() and self.path.stat().st_size:
            with open(self.path, "rb") as fh:
                fh.seek(-1, os.SEEK_END)
                torn = fh.read(1) != b"\n"
            if torn:
                with open(self.path, "ab") as fh:
                    fh.write(b"\n")
        self._fh = open(self.path, "a", encoding="utf-8")

    def append(self, entry: Mapping) -> None:
        line = json.dumps(_json_sanitize(dict(entry)), sort_keys=True)
        self._fh.write(line + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def write_header(
        self, *, fingerprint: str, work: str, points: int, trials: int,
        backend: str, processes: int,
    ) -> None:
        self.append(
            {
                "kind": "header",
                "version": JOURNAL_VERSION,
                "fingerprint": fingerprint,
                "work": work,
                "points": int(points),
                "trials": int(trials),
                "backend": backend,
                "processes": int(processes),
                "created": time.time(),
            }
        )

    def block(self, point: int, *, file: str, sha256: str, rows: int, point_params: Mapping) -> None:
        self.append(
            {
                "kind": "block",
                "point": int(point),
                "file": file,
                "sha256": sha256,
                "rows": int(rows),
                "point_params": dict(point_params),
            }
        )

    def failure(
        self, point: int, *, point_params: Mapping, failure_kind: str,
        error: str, exc_type: str, attempts: int,
    ) -> None:
        self.append(
            {
                "kind": "failure",
                "point": int(point),
                "point_params": dict(point_params),
                "failure_kind": failure_kind,
                "error": error,
                "exc_type": exc_type,
                "attempts": int(attempts),
            }
        )

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_journal(path: str | os.PathLike) -> tuple[dict, dict[int, dict]]:
    """Replay a journal: ``(header, {point index: latest entry})``.

    Tolerates a SIGKILL-torn tail: lines that fail to parse as JSON (or
    lack the entry shape) are skipped with a warning rather than
    failing the resume — the points they would have covered simply
    re-run.  The header is required (first header line wins); a journal
    with none raises :class:`~repro.errors.SpoolCorruptError`.
    """
    path = Path(path)
    header: dict | None = None
    entries: dict[int, dict] = {}
    dropped = 0
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                dropped += 1
                continue
            kind = entry.get("kind") if isinstance(entry, dict) else None
            if kind == "header":
                if header is None:
                    header = entry
            elif kind in ("block", "failure") and isinstance(entry.get("point"), int):
                entries[entry["point"]] = entry
            else:
                dropped += 1
    if dropped:
        warnings.warn(
            f"{path}: skipped {dropped} torn/unrecognized journal line(s); "
            "the affected grid points will re-run",
            stacklevel=2,
        )
    if header is None:
        raise SpoolCorruptError(f"{path}: no journal header found")
    return header, entries
