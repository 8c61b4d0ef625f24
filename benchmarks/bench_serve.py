"""Serving-layer throughput: the in-process driven loadgen at scale.

Measures sustained assignments/sec of the full serving stack —
submission, micro-batched :meth:`SaerService.run_round`, kernel-gated
routing, and per-ball future resolution — by replaying a Poisson trace
at the acceptance-criteria scale (n=10⁴ servers, one core) with the
driven (no-sleep) load generator.  The ISSUE's floor is ≥50k
assignments/sec; the gate is enforced through the loadgen's own
``--min-throughput`` so CI and this bench share one code path.

Two entry points:

* ``pytest benchmarks/bench_serve.py`` — small-scale smoke (the
  throughput floor scaled down, plus a hotspot-trace sanity run);
* ``python benchmarks/bench_serve.py [--smoke] [--json PATH]`` — the
  full measurement, writing ``BENCH_serve.json`` at the repo root
  (git ignores it: a record is a run's output, not a source file).
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.batch.kernels import KERNEL_NAMES
from repro.serve.loadgen import main as loadgen_main

_ROOT = Path(__file__).resolve().parent.parent


def _run(out: str, *, n: int, rounds: int, rate: float, min_throughput: float,
         kernel: str | None = None, trace: str = "poisson") -> int:
    argv = [
        "--mode", "inprocess",
        "--n", str(n),
        "--rounds", str(rounds),
        "--rate", str(rate),
        "--trace", trace,
        "--recovery", "8",
        "--seed", "11",
        "--trace-seed", "7",
        "--out", out,
        "--min-assign-rate", "0.99",
        "--min-throughput", str(min_throughput),
    ]
    if kernel:
        argv += ["--kernel", kernel]
    return loadgen_main(argv)


def test_serve_throughput_smoke(tmp_path):
    """CI-scale floor: even at n=2000 the driven path must clear 50k/s
    (the full-scale run clears it with margin)."""
    out = tmp_path / "bench_serve_smoke.json"
    rc = _run(str(out), n=2000, rounds=100, rate=0.3, min_throughput=50_000)
    assert rc == 0, "throughput/assignment-rate gate failed at smoke scale"
    report = json.loads(out.read_text())
    assert report["gates"]["passed"]
    assert report["totals"]["unresolved"] == 0


def test_serve_hotspot_smoke(tmp_path):
    """The adversarial hot-client trace still assigns everything (the
    anonymous-server spreading absorbs the skew) at moderate load."""
    out = tmp_path / "bench_serve_hotspot.json"
    rc = _run(str(out), n=2000, rounds=100, rate=0.1, trace="hotspot",
              min_throughput=10_000)
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["assignment_rate"] >= 0.95


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="small-scale quick run")
    parser.add_argument("--json", default=str(_ROOT / "BENCH_serve.json"))
    parser.add_argument("--kernel", default=None, choices=KERNEL_NAMES)
    args = parser.parse_args(argv)
    if args.smoke:
        return _run(args.json, n=2000, rounds=100, rate=0.3,
                    min_throughput=50_000, kernel=args.kernel)
    # The acceptance-criteria scale: n=10⁴ servers, 200 rounds of
    # Poisson(0.5·n) offered load ≈ 1M balls, one core.
    return _run(args.json, n=10_000, rounds=200, rate=0.5,
                min_throughput=50_000, kernel=args.kernel)


if __name__ == "__main__":
    raise SystemExit(main())
