#!/usr/bin/env python3
"""Check the summary line that ``perfbench/run.py`` prints last.

Pipe a run's stdout through this script; it echoes every line and then
requires of the last one:

* it parses as strict JSON (no ``NaN``, ``Infinity`` or ``-Infinity``);
* it reports ``"correct": true`` and ``"failed": 0``;
* its ``metrics`` carry every ``end_to_end`` name of ``BENCHMARK.json``
  (``--trace 0``) or every ``per_layer`` name (``--trace 1``), each with
  a finite number as its ``value``.

Exit status 0 when all hold, 1 otherwise (with the reasons on stderr)::

    python3 perfbench/run.py --workload sweep-e1 --seed 0 --seconds 1 --trace 1 \\
        | python3 scripts/check_perfbench_result.py --trace 1
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _reject_constant(name: str):
    raise ValueError(f"non-finite constant {name} is not JSON")


def problems(line: str, required: list[str]) -> list[str]:
    """Everything wrong with the summary ``line``; empty when it passes."""
    try:
        summary = json.loads(line, parse_constant=_reject_constant)
    except ValueError as exc:
        return [f"the last line is not strict JSON: {exc}"]
    if not isinstance(summary, dict):
        return ["the last line is not a JSON object"]
    found = []
    if summary.get("correct") is not True:
        found.append(f"correct is {summary.get('correct')!r}, not true")
    if summary.get("failed") != 0:
        found.append(f"failed is {summary.get('failed')!r}, not 0")
    metrics = summary.get("metrics")
    if not isinstance(metrics, dict):
        return found + ["no metrics object"]
    for name in required:
        entry = metrics.get(name)
        value = entry.get("value") if isinstance(entry, dict) else None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            found.append(f"metric {name} is missing or has no numeric value")
        elif not math.isfinite(value):
            found.append(f"metric {name} is {value}")
    return found


def required_names(trace: int) -> list[str]:
    """BENCHMARK.json's ``end_to_end`` (trace 0) or ``per_layer`` names."""
    spec = json.loads(BENCHMARK.read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--trace", type=int, choices=(0, 1), required=True,
                   help="the --trace the run was given")
    args = p.parse_args(argv)
    last = ""
    for line in sys.stdin:
        sys.stdout.write(line)
        if line.strip():
            last = line.strip()
    sys.stdout.flush()
    found = problems(last, required_names(args.trace))
    for problem in found:
        print(f"check_perfbench_result: {problem}", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
