"""End-to-end integration: the full pipeline a study would run.

graph generation → serialization round-trip → parallel Monte-Carlo sweep
→ aggregation → scaling fit → formatted table.  Exercises the seams
between subsystems that the unit tests cover in isolation.
"""

import numpy as np

import repro
from repro.analysis import fit_powerlaw, format_table
from repro.graphs.io import load_npz, save_npz
from repro.parallel import ParameterGrid, summarize
from repro.plan import ExecSpec, RunPlan, SeedSpec, WorkSpec, execute


def _trial(graph, point, p_seed):
    res = repro.run_saer(graph, point["c"], point["d"], seed=p_seed)
    return {
        "completed": res.completed,
        "rounds": res.rounds,
        "work": res.work,
        "max_load": res.max_load,
    }


def _sweep(grid, trials, seed, *, processes):
    """The plan's worker builds each trial's trust-subsets graph
    (``family="trust"``, degree ``k``) from the trial seed's graph half."""
    points = [
        dict(p, family="trust", degree=p["k"]) for p in grid.points()
    ]
    return execute(RunPlan(
        grid=points,
        work=WorkSpec(record=_trial, name="e2e"),
        trials=trials,
        seeds=SeedSpec(root=seed),
        execution=ExecSpec(processes=processes),
    ))


class TestEndToEnd:
    def test_full_pipeline(self, tmp_path):
        # 1. graph round-trips through disk unchanged
        g = repro.graphs.random_regular_bipartite(128, 49, seed=5)
        path = tmp_path / "workload.npz"
        save_npz(g, path)
        g2 = load_npz(path)
        assert np.array_equal(g.client_indices, g2.client_indices)

        # 2. the reloaded graph produces the identical run for a seed
        a = repro.run_saer(g, 1.5, 4, seed=9)
        b = repro.run_saer(g2, 1.5, 4, seed=9)
        assert a.rounds == b.rounds and np.array_equal(a.loads, b.loads)

        # 3. parallel sweep over n with per-trial independence
        grid = ParameterGrid(n=[64, 128, 256], k=[36], c=[2.0], d=[4])
        recs = _sweep(grid, 3, 11, processes=2)
        assert len(recs) == 9
        assert all(r["completed"] for r in recs)

        # 4. aggregation and scaling fit: work grows ~linearly in n
        rows = []
        for n in (64, 128, 256):
            bucket = [r for r in recs if r["n"] == n]
            rows.append(
                {
                    "n": n,
                    "work_mean": summarize([r["work"] for r in bucket])["mean"],
                    "rounds_median": summarize([r["rounds"] for r in bucket])["median"],
                }
            )
        fit = fit_powerlaw([r["n"] for r in rows], [r["work_mean"] for r in rows])
        assert 0.8 <= fit.slope <= 1.2

        # 5. the table renders with every column
        table = format_table(rows, title="e2e")
        assert "work_mean" in table and "256" in table

    def test_pipeline_reproducible_across_process_counts(self):
        grid = ParameterGrid(n=[64], k=[36], c=[2.0], d=[4])
        serial = _sweep(grid, 4, 13, processes=1)
        parallel = _sweep(grid, 4, 13, processes=4)
        assert list(serial) == list(parallel)
