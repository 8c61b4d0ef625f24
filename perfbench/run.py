"""The repository's benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload sweep-e1 --seed 0 --seconds 20 --trace 0

Builds the cext round kernel into a benchmark-owned cache, then starts
one fresh ``worker.py`` process per repetition until ``--seconds`` are
used (at least ``MIN_REPS``).  Every repetition sets up, runs the
workload's operation once and checks its outputs against the pinned
digest.  The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, each the median over the
repetitions.  ``--trace 1`` alternates untraced and traced repetitions
and reports the per-layer metrics of the traced ones (medians), plus
``trace.overhead``, the traced over the untraced operation time minus
one.  Details of every repetition and the environment record land in
``.perfbench/results/``; traced spans in ``.perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

WORKLOADS = ("sweep-e1", "sweep-e6", "serve-poisson", "serve-hotspot")
MIN_REPS = 3
#: Every run must end within this many seconds, build included.
DEADLINE_S = 170.0

#: One process, one thread, PCG64 pair seeds, the cext kernel — nothing
#: about the run's shape may come from the caller's environment.
PINNED_ENV = {
    "REPRO_KERNELS": "cext",
    "REPRO_KERNEL_THREADS": "1",
    "REPRO_SEED_MODE": "pair",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "assign_rounds_p99": "rounds",
    "peak_rss_mb": "MB",
}


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env.update(PINNED_ENV)
    env["REPRO_KERNEL_CACHE"] = str(OUT / "kernel-cache")
    return env


def run_worker(args: list[str], env: dict, timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(reps: list[dict]) -> dict:
    per_rep = {
        "setup_s": [r["setup_s"] for r in reps],
        "items_per_s": [r["items"] / r["op_s"] for r in reps],
        "assign_rounds_p99": [r["assign_rounds_p99"] for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
    }
    return {
        name: {"value": _median(per_rep[name]), "unit": unit}
        for name, unit in END_TO_END.items()
    }


def per_layer(traced: list[dict], plain: list[dict]) -> dict:
    metrics = {
        name: {"value": _median([r["layers"][name][0] for r in traced]), "unit": unit}
        for name, (_value, unit) in traced[0]["layers"].items()
    }
    overhead = _median([r["op_s"] for r in traced]) / _median([r["op_s"] for r in plain]) - 1
    metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    started = time.monotonic()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro package under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    env = child_env()
    build_env = run_worker(["--build"], env, DEADLINE_S)
    print("env " + json.dumps(build_env), flush=True)
    if build_env["kernel_gate"] != "cext":
        print(f"kernel gate is {build_env['kernel_gate']!r}, not 'cext'", file=sys.stderr)
        return 1

    reps: list[dict] = []
    walls: list[float] = []
    t_measure = time.monotonic()
    while True:
        elapsed = time.monotonic() - t_measure
        if len(reps) >= MIN_REPS * (1 + args.trace) and elapsed + _median(walls) > args.seconds:
            break
        traced = args.trace == 1 and len(reps) % 2 == 1
        remaining = DEADLINE_S - (time.monotonic() - started)
        t = time.monotonic()
        reps.append(run_worker(
            ["--workload", args.workload, "--seed", str(args.seed),
             "--rep", str(len(reps)), "--trace", str(int(traced))],
            env, remaining,
        ))
        walls.append(time.monotonic() - t)

    traced = [r for r in reps if r["trace"]]
    plain = [r for r in reps if not r["trace"]]
    metrics = per_layer(traced, plain) if args.trace else end_to_end(plain)
    summary = {
        "correct": all(r["correct"] for r in reps),
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": metrics,
    }
    OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
    record = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(
        {"args": vars(args), "env": build_env, "reps": reps, **summary}, indent=1
    ))
    for r in reps:
        for problem in r["problems"]:
            print(f"rep {r['rep']}: {problem}", file=sys.stderr)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
