"""Pin the output digest of every workload input set into ``digests.json``.

    python3 perfbench/pin.py                      # every workload
    python3 perfbench/pin.py --workload sweep-e1  # one workload

Runs each workload once per input set (``SEED_SPACE`` of them) in a
fresh worker process and records its output digest.  It refuses to pin
an input set on which any operation failed, so every seed the benchmark
accepts is one on which nothing fails.  Re-pin only when a workload's
definition changes: the digests are what makes a run fail on wrong
outputs.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import HERE, WORKLOADS, child_env, run_worker
from workloads import SEED_SPACE


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", choices=WORKLOADS)
    args = p.parse_args(argv)
    env = child_env()
    run_worker(["--build"], env, 600)
    path = HERE / "digests.json"
    digests = json.loads(path.read_text()) if path.exists() else {}
    for name in args.workload or WORKLOADS:
        table = {}
        for index in range(SEED_SPACE):
            r = run_worker(["--workload", name, "--seed", str(index), "--pin"], env, 600)
            if r["failed"] or r["problems"]:
                print(f"{name} seed {index}: {r['failed']} failed, {r['problems']}",
                      file=sys.stderr)
                return 1
            table[str(index)] = r["digest"]
            print(f"{name} {index} {r['digest'][:16]} op {r['op_s']:.2f}s", flush=True)
        digests[name] = table
        path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
