"""Durable plan execution: crash supervision, result spooling, resume.

Three cooperating pieces, layered under :func:`repro.plan.execute`:

* :mod:`~repro.durable.supervisor` — :func:`supervised_map`, the
  future-based replacement for ``ProcessPoolExecutor.map`` that
  survives worker death, retries with capped deterministic backoff,
  enforces per-task timeouts, and quarantines poison tasks;
* :mod:`~repro.durable.journal` — the plan fingerprint and the
  append-only JSONL journal a durable run logs its progress to;
* :mod:`~repro.durable.spool` — atomic, checksummed per-grid-point
  block files plus :class:`SpoolReader`, the lazy read-side handle.

``ResultSpec(dir=...)`` turns them on;
``execute(plan, resume=dir)`` replays a journal and runs only what is
missing, bit-identical to an uninterrupted run.
"""

from .journal import (
    JOURNAL_NAME,
    JournalWriter,
    plan_fingerprint,
    read_journal,
    seed_token,
)
from .spool import (
    SpoolReader,
    failure_block,
    file_sha256,
    open_journal,
    read_block,
    write_block,
)
from .supervisor import RetryPolicy, TaskFailure, supervised_map

__all__ = [
    "JOURNAL_NAME",
    "JournalWriter",
    "plan_fingerprint",
    "read_journal",
    "seed_token",
    "SpoolReader",
    "failure_block",
    "file_sha256",
    "open_journal",
    "read_block",
    "write_block",
    "RetryPolicy",
    "TaskFailure",
    "supervised_map",
]
