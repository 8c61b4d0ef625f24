"""One workload process: set up, run the timed operation once, check it.

``run.py`` starts one of these per repetition, so every repetition pays
what a user's process pays: the import, the kernel ``.so`` load, lazy
first-call imports inside the operation.  The result is one JSON line
on standard output.

    python3 perfbench/worker.py --workload sweep-e1 --seed 0 --rep 0 --trace 0
    python3 perfbench/worker.py --build     # compile the kernel, print the environment
"""

import time

T0 = time.perf_counter()  # setup_s counts from here, before numpy or repro load

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import SpeedProbe  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*")):
        if path.suffix in (".py", ".c"):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _git_rev():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return proc.stdout.strip() or None


def _compiler_probe() -> dict:
    """The flags the library's kernel build tries first, and the SIMD
    level they compile for.

    The library builds ``_kernels.c`` with ``-O3 -march=native`` and
    falls back to plain ``-O3`` when the compiler refuses
    ``-march=native``; the preprocessor's predefined macros tell which
    applies here and which vector extensions the object uses.
    """
    cc = os.environ.get("CC") or next(
        (c for c in ("cc", "gcc", "clang") if shutil.which(c)), None
    )
    if cc is None:
        return {"cc": None, "flags": None, "simd": None}
    for extra in (["-march=native"], []):
        proc = subprocess.run(
            [cc, *extra, "-dM", "-E", "-x", "c", "-"], input="", capture_output=True,
            text=True,
        )
        if proc.returncode == 0:
            macros = proc.stdout
            simd = next(
                (name for name, macro in (
                    ("avx512f", "__AVX512F__"), ("avx2", "__AVX2__"),
                    ("sse4.2", "__SSE4_2__"), ("sse2", "__SSE2__"),
                ) if f"#define {macro} " in macros),
                "none",
            )
            version = subprocess.run([cc, "--version"], capture_output=True, text=True)
            return {
                "cc": version.stdout.splitlines()[0] if version.stdout else cc,
                "flags": " ".join(["-O3", *extra, "-shared", "-fPIC"]),
                "simd": simd,
            }
    return {"cc": cc, "flags": None, "simd": None}


def build() -> int:
    """Compile the package's bytecode and the cext kernel into the
    benchmark's own cache, then print the environment record."""
    import compileall

    compileall.compile_dir(str(ROOT / "src" / "repro"), quiet=1)
    import numpy
    import scipy

    from repro.batch.kernels import resolve_kernel
    from repro.parallel import available_cpus

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        gate = resolve_kernel("cext").name
    env = {
        "kernel_gate": gate,
        "kernel_cache": os.path.relpath(os.environ.get("REPRO_KERNEL_CACHE", "?"), ROOT),
        **{f"compiler_{k}": v for k, v in _compiler_probe().items()},
        "available_cpus": available_cpus(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_rev": _git_rev(),
        "source_sha256": _source_sha256(),
        "pins": {k: os.environ.get(k) for k in (
            "REPRO_KERNELS", "REPRO_KERNEL_THREADS", "REPRO_SEED_MODE",
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
        )},
    }
    print(json.dumps(env))
    return 0


def run_rep(args, probe: SpeedProbe) -> dict:
    """One repetition, sampled by the started ``probe`` from its first statement."""
    import numpy as np

    import workloads
    from layers import layer_metrics
    from tracer import Tracer

    # A kernel that silently falls back to numpy fails the run.
    warnings.filterwarnings("error", message="repro kernel")
    from repro.batch.kernels import resolve_kernel

    workload = workloads.WORKLOADS[args.workload]
    scratch = ROOT / ".perfbench" / "scratch" / f"{os.getpid()}-{args.rep}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    gate = resolve_kernel("cext").name  # loads the .so before timing starts

    tracer = None
    if args.trace:
        tracer = Tracer(probe)
        tracer.install(workloads.trace_targets(workload))
        setup_span = tracer.open_span("setup", "bench")
    workload.setup(args.seed, scratch)
    if tracer:
        tracer.close_span(setup_span)
        op_span = tracer.open_span("op", "bench")
    at_op = probe.mark()
    t1 = time.perf_counter()
    out = workload.run()
    t2 = time.perf_counter()
    done = probe.mark()
    probe.stop()
    if tracer:
        tracer.close_span(op_span)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0 - probe.table_mb
    setup_wall, op_wall = t1 - T0, t2 - t1
    setup_s = probe.reference_s(setup_wall, (0, 0.0), at_op)
    op_s = probe.reference_s(op_wall, at_op, done)

    outcome = workload.outcome(out)
    pinned = json.loads((HERE / "digests.json").read_text()).get(args.workload, {})
    expected = pinned.get(str(args.seed % workloads.SEED_SPACE))
    problems = list(outcome.problems)
    if gate != "cext":
        problems.append(f"kernel gate is {gate!r}, not 'cext'")
    if not args.pin and outcome.digest != expected:
        problems.append(f"output digest {outcome.digest[:16]} != pinned {str(expected)[:16]}")
    result = {
        "rep": args.rep,
        "trace": args.trace,
        "setup_s": setup_s,  # reference seconds
        "op_s": op_s,
        "setup_wall_s": setup_wall,
        "op_wall_s": op_wall,
        "probe_samples": len(probe.samples),
        "peak_rss_mb": rss_mb,
        "items": outcome.items,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "assign_rounds_p99": float(np.quantile(outcome.assign_rounds, 0.99)),
        "digest": outcome.digest,
        "correct": not problems,
        "problems": problems,
    }
    if tracer:
        trace_rounds = len(workload.trace) if workload.kind == "serve" else 0
        result["layers"] = layer_metrics(tracer, setup_span[0], op_span[0], trace_rounds)
        result["dropped"] = tracer.dropped
        traces = ROOT / ".perfbench" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        tracer.write_ndjson(
            traces / f"{args.workload}-seed{args.seed}-rep{args.rep}.ndjson", T0
        )
    shutil.rmtree(scratch, ignore_errors=True)
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--build", action="store_true")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rep", type=int, default=0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--pin", action="store_true",
                   help="report the digest without checking it (used by pin.py)")
    args = p.parse_args(argv)
    if args.build:
        return build()
    probe = SpeedProbe()
    probe.start()
    print(json.dumps(run_rep(args, probe)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
