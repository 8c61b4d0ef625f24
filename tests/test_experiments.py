"""Tests for the experiment registry and (down-scaled) runners."""

from pathlib import Path

import pytest

from repro.errors import ExperimentError
from repro.experiments import (
    EXPERIMENTS,
    get_experiment,
    list_experiments,
    run_e01_completion,
    run_e03_max_load,
    run_e04_burned_fraction,
    run_e05_dominance,
    run_e06_c_threshold,
    run_e07_degree_sweep,
    run_e08_almost_regular,
    run_e09_baselines,
    run_e10_stage1,
    run_e11_alive_decay,
    run_e12_dynamic,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestRegistry:
    def test_registered_experiments(self):
        assert len(EXPERIMENTS) == 14
        want = {f"E{i}" for i in range(1, 13)} | {"F1", "S1"}
        assert {s.id for s in list_experiments()} == want

    def test_ordered_listing(self):
        ids = [s.id for s in list_experiments()]
        assert ids == [f"E{i}" for i in range(1, 13)] + ["F1", "S1"]

    def test_lookup_case_insensitive(self):
        assert get_experiment("e4").id == "E4"

    def test_unknown_raises(self):
        with pytest.raises(ExperimentError):
            get_experiment("E99")

    def test_specs_are_complete(self):
        for spec in list_experiments():
            assert spec.claim and spec.paper_ref and spec.expected_shape
            assert spec.runner.startswith(("run_e", "run_f", "run_s"))
            assert spec.bench.startswith("benchmarks/bench_")
            assert (REPO_ROOT / spec.bench).is_file(), spec.bench

    def test_runners_exist(self):
        from repro.experiments import runners

        for spec in list_experiments():
            assert hasattr(runners, spec.runner)


class TestRunnersSmall:
    """Each runner executed at toy scale, serially: well-formed output."""

    def test_e01(self):
        rows, meta = run_e01_completion(ns=(64, 128), trials=2, processes=1, seed=1)
        assert len(rows) == 2
        assert all(r["completed"] == 2 for r in rows)
        assert "log2_fit" in meta

    def test_e03(self):
        rows, meta = run_e03_max_load(
            n=64, settings=((2.0, 2),), families=("regular",), trials=2, processes=1
        )
        assert meta["total_violations"] == 0
        assert all(row["violations"] == 0 for row in rows)

    def test_e04(self):
        rows, meta = run_e04_burned_fraction(
            ns=(64,), trials=2, include_paper_c=False, processes=1
        )
        assert len(rows) == 2  # two practical-c regimes
        for row in rows:
            assert row["max_s_t_worst"] <= 1.0

    def test_e05(self):
        rows, meta = run_e05_dominance(ns=(64,), cs=(1.5,), trials=3, processes=1)
        assert meta["all_nested"] and meta["all_dominated"]

    def test_e06(self):
        rows, _ = run_e06_c_threshold(n=64, cs=(1.0, 4.0), trials=3, processes=1)
        low, high = rows[0], rows[1]
        assert high["completion_rate"] >= low["completion_rate"]
        assert high["completion_rate"] == 1.0

    def test_e07(self):
        rows, _ = run_e07_degree_sweep(n=64, trials=2, processes=1)
        assert any(r["meets_hypothesis"] for r in rows)
        complete_row = [r for r in rows if "complete" in r["degree_regime"]][0]
        assert complete_row["degree"] == 64

    def test_e08(self):
        rows, _ = run_e08_almost_regular(n=64, ratios=(1, 2), trials=2, processes=1)
        assert len(rows) == 3  # two ratios + paper_extremal
        assert all(r["completed"] == r["trials"] for r in rows)

    def test_e09(self):
        rows, meta = run_e09_baselines(n=64, trials=2, processes=1)
        algos = {r["algorithm"] for r in rows}
        assert "saer" in algos and "godfrey_greedy" in algos
        saer_row = [r for r in rows if r["algorithm"] == "saer"][0]
        assert saer_row["max_load_max"] <= meta["capacity"]
        assert not saer_row["discloses_loads"]

    def test_e10(self):
        rows, meta = run_e10_stage1(n=256, seed=5)
        assert meta["all_K_below_gamma"]
        assert meta["all_r_below_envelope"]
        assert any(r["regime"].startswith("contended") for r in rows)

    def test_e11(self):
        rows, _ = run_e11_alive_decay(ns=(128,), trials=2, processes=1)
        assert rows[0]["within_bound"]

    def test_e12(self):
        rows, _ = run_e12_dynamic(
            n=64, rates=(0.1, 3.0), horizon=80, trials=1, processes=1
        )
        # includes the no-recovery control row
        assert len(rows) == 3
        sub = [r for r in rows if r["rate"] == 0.1 and r["recovery"] is not None][0]
        sup = [r for r in rows if r["rate"] == 3.0][0]
        assert sub["backlog_mean_2nd_half"] < sup["backlog_mean_2nd_half"]


class TestCli:
    def test_list(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "E12" in out

    def test_info(self, capsys):
        from repro.cli import main

        assert main(["info", "E5"]) == 0
        assert "Corollary 2" in capsys.readouterr().out

    def test_info_unknown(self, capsys):
        from repro.cli import main

        assert main(["info", "E99"]) == 2

    def test_run_small(self, capsys, tmp_path):
        from repro.cli import main

        csv = tmp_path / "out.csv"
        assert main(["run", "E5", "--trials", "2", "--processes", "1", "--csv", str(csv)]) == 0
        out = capsys.readouterr().out
        assert "RAES dominates SAER" in out
        assert csv.exists()

    def test_run_ablations(self, capsys):
        from repro.cli import main

        assert main(["run", "ablations", "--trials", "1", "--processes", "1"]) == 0
        out = capsys.readouterr().out
        assert "design-choice ablations" in out
        assert "distinct-sampling" in out


class TestSharedTopologySweep:
    def test_e06_share_graph_smoke(self, tmp_path):
        from repro.experiments.runners import run_e06_c_threshold

        rows, meta = run_e06_c_threshold(
            n=64,
            cs=(1.5, 4.0),
            trials=2,
            seed=1,
            processes=1,
            backend="batched",
            share_graph=True,
            graph_cache=str(tmp_path),
        )
        assert meta["share_graph"] is True
        assert len(rows) == 2
        assert len(list(tmp_path.glob("regular-*.npz"))) == 1

    def test_e06_share_graph_deterministic_across_processes(self):
        from repro.experiments.runners import run_e06_c_threshold

        a = run_e06_c_threshold(
            n=64, cs=(1.5, 4.0), trials=2, seed=1, processes=1, share_graph=True
        )
        b = run_e06_c_threshold(
            n=64, cs=(1.5, 4.0), trials=2, seed=1, processes=2, share_graph=True
        )
        assert a[0] == b[0]

    def test_e01_graph_cache_hits(self, tmp_path):
        from repro.experiments.runners import run_e01_completion

        run_e01_completion(
            ns=(64, 128), trials=2, seed=3, processes=1, graph_cache=str(tmp_path)
        )
        files = set(tmp_path.glob("regular-*.npz"))
        assert len(files) == 4  # one graph per (n, trial): per-trial g_seed
        run_e01_completion(
            ns=(64, 128), trials=2, seed=3, processes=1, graph_cache=str(tmp_path)
        )
        assert set(tmp_path.glob("regular-*.npz")) == files
