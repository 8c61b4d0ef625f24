"""Trial-vectorized batched execution of the paper's protocols.

Where :mod:`repro.core` runs one protocol trial per call, this subsystem
runs ``R`` independent trials on the same graph as a single set of 2-D
numpy operations (trial axis × ball/server axis), with per-trial round
counters and early per-trial termination.  It is the in-process half of
the library's two-level parallelism model — batched trials *within* a
process, process-pool workers *across* sweep points (see
:mod:`repro.parallel`) — and is trial-for-trial bit-identical to the
reference engine under matching seeds.

Entry points: :func:`run_trials_batched` (generic),
:func:`run_saer_batched` / :func:`run_raes_batched` (convenience), and
:class:`BatchResult` with its ``to_run_results()`` adapter back to
per-trial :class:`~repro.core.results.RunResult` records.

The per-round hot loop also exists as a fused compiled kernel behind a
runtime gate (:mod:`repro.batch.kernels`: ``kernel=`` argument or
``REPRO_KERNELS`` env var; numpy reference or C extension —
bit-identical, and the C path falls back to numpy where it cannot be
built), with a trial-partitioned OpenMP build (``threads=`` argument or
``REPRO_KERNEL_THREADS`` env var — bit-identical at every thread
count), and sweep results can travel as typed
:class:`ResultBlock` columns instead of per-trial dicts (the columnar
results spool of :mod:`repro.parallel.sweep` /
:mod:`repro.parallel.aggregate`).
"""

from .engine import run_raes_batched, run_saer_batched, run_trials_batched
from .kernels import (
    EngineBuffers,
    available_kernels,
    resolve_kernel,
    resolve_threads,
)
from .policies import BatchedRaesPolicy, BatchedSaerPolicy, BatchedServerPolicy
from .results import BatchResult, ResultBlock

__all__ = [
    "run_trials_batched",
    "run_saer_batched",
    "run_raes_batched",
    "BatchResult",
    "ResultBlock",
    "BatchedServerPolicy",
    "BatchedSaerPolicy",
    "BatchedRaesPolicy",
    "EngineBuffers",
    "available_kernels",
    "resolve_kernel",
    "resolve_threads",
]
