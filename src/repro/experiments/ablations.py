"""Ablation experiments on the protocol's design choices (DESIGN.md §5).

SAER makes three distinctive design choices; each ablation isolates one:

* **A1 — batch rejection vs partial acceptance.**  A SAER server that
  trips the threshold rejects its *whole* round batch (which is what
  makes the burned-set analysis clean).  The ablation compares against
  a cumulative-cap threshold server that accepts as much of the batch
  as fits (``run_threshold_protocol`` with ``cumulative_cap``).
* **A2 — permanent burning vs transient saturation.**  SAER's burned
  state is permanent; RAES's saturation is per-round.  (E5 proves the
  dominance direction; the ablation quantifies the *cost* of burning:
  extra rounds and messages at equal load cap.)
* **A3 — with- vs without-replacement destination sampling.**  Algorithm
  1 line 3 samples neighbors with replacement; the variant sends a
  client's per-round requests to distinct servers, removing same-client
  collisions.

All three run on the same graphs with the same ``(c, d)``, in the
contended regime where the differences are visible.
"""

from __future__ import annotations

import math

from ..baselines.threshold import run_threshold_protocol
from ..core.engine import run_raes, run_saer
from ..graphs.families import canonical_degree
from ..parallel.aggregate import summarize
from ..parallel.pool import map_parallel
from ..rng import spawn_seeds

__all__ = ["run_ablations"]

_VARIANTS = (
    ("saer (baseline)", "A-", "batch reject, permanent burn, with replacement"),
    ("partial-accept", "A1", "accept what fits (cumulative cap), no burn"),
    ("raes (transient)", "A2", "batch reject, per-round saturation"),
    ("distinct-sampling", "A3", "saer with without-replacement destinations"),
)


def _ablation_task(task) -> dict:
    variant, n, c, d, degree, seed_seq = task
    from ..graphs.generators import random_regular_bipartite

    g_seed, p_seed = seed_seq.spawn(2)
    graph = random_regular_bipartite(n, degree, seed=g_seed)
    capacity = int(math.floor(c * d))
    if variant == "saer (baseline)":
        r = run_saer(graph, c, d, seed=p_seed)
        out = dict(
            completed=r.completed, rounds=r.rounds, work=r.work, max_load=r.max_load
        )
    elif variant == "partial-accept":
        b = run_threshold_protocol(
            graph, d, threshold=capacity, cumulative_cap=capacity, seed=p_seed
        )
        out = dict(
            completed=b.completed, rounds=b.rounds, work=b.work, max_load=b.max_load
        )
    elif variant == "raes (transient)":
        r = run_raes(graph, c, d, seed=p_seed)
        out = dict(
            completed=r.completed, rounds=r.rounds, work=r.work, max_load=r.max_load
        )
    elif variant == "distinct-sampling":
        r = run_saer(graph, c, d, seed=p_seed, sampling="without_replacement")
        out = dict(
            completed=r.completed, rounds=r.rounds, work=r.work, max_load=r.max_load
        )
    else:  # pragma: no cover
        raise ValueError(variant)
    out["variant"] = variant
    out["capacity"] = capacity
    return out


def run_ablations(
    n: int = 1024,
    c: float = 1.5,
    d: int = 4,
    trials: int = 8,
    seed=1717,
    processes: int | None = None,
) -> tuple[list[dict], dict]:
    """Run all three ablations; one table row per variant."""
    degree = canonical_degree(n)
    variants = [v for v, _, _ in _VARIANTS]
    seeds = spawn_seeds(seed, len(variants) * trials)
    tasks = []
    i = 0
    for variant in variants:
        for _t in range(trials):
            tasks.append((variant, n, c, d, degree, seeds[i]))
            i += 1
    recs = map_parallel(_ablation_task, tasks, processes=processes)
    rows = []
    for variant, abl_id, description in _VARIANTS:
        bucket = [r for r in recs if r["variant"] == variant]
        done_rounds = [r["rounds"] for r in bucket if r["completed"]]
        rows.append(
            {
                "ablation": abl_id,
                "variant": variant,
                "design_choice": description,
                "trials": len(bucket),
                "completed": sum(r["completed"] for r in bucket),
                "rounds_median": summarize(done_rounds)["median"] if done_rounds else None,
                "work_per_client": round(
                    summarize([r["work"] / n for r in bucket])["mean"], 2
                ),
                "max_load_worst": max(r["max_load"] for r in bucket),
                "capacity": bucket[0]["capacity"] if bucket else None,
            }
        )
    meta = {"n": n, "c": c, "d": d, "records": recs}
    return rows, meta
