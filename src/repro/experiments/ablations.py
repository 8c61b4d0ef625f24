"""Ablation experiments on the protocol's design choices (A1–A3).

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
contended regime where the differences are visible.  The run is one
:func:`repro.plan.execute` over one grid point per variant, so variant
``v``'s trial ``r`` draws its graph and protocol seeds from task seed
``v·trials + r`` of the root spawn.
"""

from __future__ import annotations

import math
from typing import Mapping

from ..baselines.threshold import run_threshold_protocol
from ..core.engine import run_raes, run_saer
from ..graphs.families import canonical_degree
from ..parallel.aggregate import summarize
from ..plan import ExecSpec, RunPlan, SeedSpec, WorkSpec, execute

__all__ = ["run_ablations"]

_VARIANTS = (
    ("saer (baseline)", "A-", "batch reject, permanent burn, with replacement"),
    ("partial-accept", "A1", "accept what fits (cumulative cap), no burn"),
    ("raes (transient)", "A2", "batch reject, per-round saturation"),
    ("distinct-sampling", "A3", "saer with without-replacement destinations"),
)


def _ablation_record(graph, point: Mapping, p_seed) -> dict:
    """One trial of the point's variant on ``graph`` → the ablation record."""
    variant, c, d = point["variant"], point["c"], point["d"]
    capacity = int(math.floor(c * d))
    if variant == "saer (baseline)":
        r = run_saer(graph, c, d, seed=p_seed)
    elif variant == "partial-accept":
        r = run_threshold_protocol(
            graph, d, threshold=capacity, cumulative_cap=capacity, seed=p_seed
        )
    elif variant == "raes (transient)":
        r = run_raes(graph, c, d, seed=p_seed)
    elif variant == "distinct-sampling":
        r = run_saer(graph, c, d, seed=p_seed, sampling="without_replacement")
    else:  # pragma: no cover
        raise ValueError(variant)
    return dict(
        completed=r.completed, rounds=r.rounds, work=r.work, max_load=r.max_load,
        capacity=capacity,
    )


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
    table = execute(RunPlan(
        grid=[
            {"variant": variant, "n": n, "c": c, "d": d, "degree": degree}
            for variant, _, _ in _VARIANTS
        ],
        work=WorkSpec(record=_ablation_record, name="ablations"),
        trials=trials,
        seeds=SeedSpec(root=seed),
        execution=ExecSpec(processes=processes),
    ))
    rows = []
    for variant, abl_id, description in _VARIANTS:
        bucket = table.where(variant=variant)
        completed = bucket.column("completed").astype(bool)
        done_rounds = bucket.column("rounds")[completed]
        rows.append(
            {
                "ablation": abl_id,
                "variant": variant,
                "design_choice": description,
                "trials": len(bucket),
                "completed": int(completed.sum()),
                "rounds_median": summarize(done_rounds)["median"] if done_rounds.size else None,
                "work_per_client": round(
                    summarize(bucket.column("work") / n)["mean"], 2
                ),
                "max_load_worst": int(bucket.column("max_load").max()),
                "capacity": bucket[0]["capacity"],
            }
        )
    meta = {"n": n, "c": c, "d": d, "records": table}
    return rows, meta
