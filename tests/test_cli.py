"""Tests for the CLI's capability-driven runner invocation and plumbing."""

from __future__ import annotations

import functools
import inspect

import pytest

from repro.cli import main, run_experiment
from repro.experiments import list_experiments
from repro.experiments import runners as runner_mod


class TestRegistryCapabilities:
    """The registry's declared plan support must match runner signatures."""

    def test_capabilities_are_real_kwargs(self):
        for spec in list_experiments():
            fn = getattr(runner_mod, spec.runner)
            accepted = set(inspect.signature(fn).parameters)
            missing = set(spec.capabilities) - accepted
            assert not missing, (
                f"{spec.id} declares capabilities {sorted(missing)} its "
                f"runner {spec.runner} does not accept"
            )

    def test_every_experiment_declares_the_common_overrides(self):
        for spec in list_experiments():
            # E10 is a two-run traced experiment and S1 a single-service
            # trace replay: neither has a trials/processes axis.
            want = (
                {"seed"}
                if spec.id in ("E10", "S1")
                else {"trials", "seed", "processes"}
            )
            assert want <= set(spec.capabilities), spec.id

    def test_smoke_kwargs_are_real_kwargs(self):
        for spec in list_experiments():
            fn = getattr(runner_mod, spec.runner)
            accepted = set(inspect.signature(fn).parameters)
            assert set(spec.smoke) <= accepted, spec.id


class TestRunExperiment:
    def test_partial_runner_receives_overrides(self, monkeypatch):
        monkeypatch.setattr(
            runner_mod,
            "run_e01_completion",
            functools.partial(runner_mod.run_e01_completion, ns=(64, 128)),
        )
        rows, meta = run_experiment("E1", trials=2, seed=5, processes=1)
        assert all(row["trials"] == 2 for row in rows)
        assert {row["n"] for row in rows} == {64, 128}

    def test_backend_forwarded_where_declared(self, monkeypatch):
        captured = {}

        def spy(trials=1, seed=None, processes=None, backend="reference"):
            captured["backend"] = backend
            return [], {}

        monkeypatch.setattr(runner_mod, "run_e01_completion", spy)
        run_experiment("E1", backend="batched")
        assert captured["backend"] == "batched"

    def test_undeclared_override_warns_and_is_dropped(self, monkeypatch):
        captured = {}

        def spy(n=256, d=4, c=None, contended_c=1.5, seed=1010):
            captured["kwargs_seen"] = True
            return [], {}

        monkeypatch.setattr(runner_mod, "run_e10_stage1", spy)
        # E10 declares only ("seed",): backend must warn, not crash.
        with pytest.warns(UserWarning, match="E10 does not support the 'backend'"):
            run_experiment("E10", seed=3, backend="batched")
        assert captured["kwargs_seen"]

    def test_share_graph_warns_outside_fixed_topology_sweeps(self):
        with pytest.warns(UserWarning, match="share_graph"):
            rows, _meta = run_experiment(
                "E1", trials=1, seed=2, processes=1, share_graph=True
            )
        assert rows  # the run itself still happens


class TestMainBackendFlag:
    def test_run_with_batched_backend(self, capsys):
        rc = main(
            ["run", "E1", "--trials", "2", "--seed", "4", "--processes", "1",
             "--backend", "batched"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Completion time" in out

    def test_backend_choices_enforced(self):
        with pytest.raises(SystemExit):
            main(["run", "E1", "--backend", "warp-drive"])

    def test_kernel_flag_maps_onto_plan(self, capsys, monkeypatch):
        # Pre-register REPRO_KERNELS with monkeypatch so the value main()
        # exports is rolled back at teardown (no env leak across tests).
        monkeypatch.setenv("REPRO_KERNELS", "numpy")
        rc = main(
            ["run", "E1", "--trials", "2", "--seed", "4", "--processes", "1",
             "--backend", "batched", "--kernel", "numpy"]
        )
        assert rc == 0
        assert "Completion time" in capsys.readouterr().out

    def test_kernel_flag_on_env_gated_runner_does_not_warn(self, monkeypatch, capsys):
        import warnings as warnings_mod

        monkeypatch.setenv("REPRO_KERNELS", "numpy")
        # E5 has no kernel capability, but the env gate (set by _cmd_run)
        # is the documented mechanism there — no "ignored" warning.
        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("error")
            rc = main(["run", "E5", "--trials", "2", "--processes", "1",
                       "--kernel", "numpy"])
        assert rc == 0

    def test_kernel_threads_forwarded_where_declared(self, monkeypatch):
        captured = {}

        def spy(trials=1, seed=None, processes=None, kernel_threads=None):
            captured["kernel_threads"] = kernel_threads
            return [], {}

        monkeypatch.setattr(runner_mod, "run_e01_completion", spy)
        run_experiment("E1", kernel_threads=2)
        assert captured["kernel_threads"] == 2

    def test_kernel_threads_flag_maps_onto_plan(self, capsys, monkeypatch):
        # Pre-register both variables main() exports, so teardown rolls
        # them back (no env leak into later test modules).
        monkeypatch.setenv("REPRO_KERNELS", "numpy")
        monkeypatch.setenv("REPRO_KERNEL_THREADS", "2")
        rc = main(
            ["run", "E1", "--trials", "2", "--seed", "4", "--processes", "1",
             "--backend", "batched", "--kernel", "numpy",
             "--kernel-threads", "2"]
        )
        assert rc == 0
        assert "Completion time" in capsys.readouterr().out

    def test_kernel_threads_on_env_gated_runner_does_not_warn(self, monkeypatch):
        import warnings as warnings_mod

        monkeypatch.setenv("REPRO_KERNEL_THREADS", "2")
        # E5 has no kernel_threads capability; the env gate set by
        # _cmd_run is the documented mechanism there — no warning.
        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("error")
            rc = main(["run", "E5", "--trials", "2", "--processes", "1",
                       "--kernel-threads", "2"])
        assert rc == 0


class TestGraphFlags:
    def test_share_graph_and_cache_forwarded(self, capsys, tmp_path):
        rc = main(
            [
                "run",
                "E6",
                "--trials",
                "2",
                "--processes",
                "1",
                "--backend",
                "batched",
                "--share-graph",
                "--graph-cache",
                str(tmp_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "E6" in out
        assert "'share_graph': True" in out
        assert list(tmp_path.glob("regular-*.npz"))

    def test_share_graph_warns_for_non_sweep_runner(self, capsys):
        # E10 takes neither share_graph nor graph_cache; the flags must
        # warn and be dropped rather than crash the runner.
        with pytest.warns(UserWarning, match="share_graph"):
            rc = main(["run", "E10", "--share-graph", "--seed", "2"])
        assert rc == 0


class TestSmokeCommand:
    def test_smoke_single_experiment_both_backends(self, capsys):
        rc = main(["smoke", "--only", "E1", "--processes", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Plan smoke" in out
        assert out.count("E1") >= 2  # one row per backend


class TestPlanErrorsReported:
    """A plan the library rejects is an ``error:`` line and exit 2, like
    an unknown experiment — never a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "E1", "--trials", "-1"],
            ["run", "E1", "--trials", "1", "--seed-mode", "direct"],
            ["run", "E1", "--trials", "1", "--backend", "batched", "--kernel-threads", "0"],
            ["run", "E1", "--trials", "1", "--processes", "0"],
            ["run", "ablations", "--trials", "1", "--processes", "-3"],
        ],
        ids=["negative-trials", "direct-without-pinned-graph", "zero-threads",
             "zero-processes", "negative-processes"],
    )
    def test_rejected_plan_exits_2(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_resume_of_another_plan_exits_2(self, capsys, tmp_path):
        spool = str(tmp_path / "spool")
        args = ["run", "E1", "--trials", "1", "--processes", "1", "--spool", spool]
        assert main(args) == 0
        capsys.readouterr()
        assert main(["run", "E1", "--trials", "2", "--processes", "1", "--resume", spool]) == 2
        assert capsys.readouterr().err.startswith("error: ")
