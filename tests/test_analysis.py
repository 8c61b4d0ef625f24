"""Tests for fitting, statistics and table formatting."""

import math

import numpy as np
import pytest

from repro.analysis import (
    bootstrap_ci,
    fit_linear,
    fit_log2,
    fit_powerlaw,
    format_table,
    mean_ci,
    records_to_csv,
    wilson_interval,
    write_csv,
)


class TestFits:
    def test_log2_recovers_exact(self):
        x = np.array([64, 256, 1024, 4096])
        y = 3.0 + 2.0 * np.log2(x)
        fit = fit_log2(x, y)
        assert fit.intercept == pytest.approx(3.0)
        assert fit.slope == pytest.approx(2.0)
        assert fit.r2 == pytest.approx(1.0)

    def test_log2_predict(self):
        fit = fit_log2([2, 4, 8], [1.0, 2.0, 3.0])
        assert fit.predict([16])[0] == pytest.approx(4.0)

    def test_linear_recovers_exact(self):
        x = np.array([1.0, 2.0, 3.0])
        fit = fit_linear(x, 5.0 - 2.0 * x)
        assert fit.slope == pytest.approx(-2.0)
        assert fit.intercept == pytest.approx(5.0)

    def test_powerlaw_recovers_exponent(self):
        x = np.array([10, 100, 1000, 10000], dtype=float)
        y = 0.5 * x**1.3
        fit = fit_powerlaw(x, y)
        assert fit.slope == pytest.approx(1.3)
        assert fit.predict([100.0])[0] == pytest.approx(0.5 * 100**1.3, rel=1e-6)

    def test_log_fit_rejects_nonpositive_x(self):
        with pytest.raises(ValueError):
            fit_log2([0, 1], [1, 2])

    def test_powerlaw_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fit_powerlaw([1, 2], [0, 1])

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_linear([1], [1])

    def test_describe_strings(self):
        assert "log2" in fit_log2([2, 4], [1, 2]).describe()
        assert "R²" in fit_linear([1, 2], [1, 2]).describe()


class TestStats:
    def test_mean_ci_contains_mean(self):
        m, lo, hi = mean_ci([1, 2, 3, 4, 5])
        assert lo <= m <= hi
        assert m == 3.0

    def test_mean_ci_single(self):
        m, lo, hi = mean_ci([2.0])
        assert m == lo == hi == 2.0

    def test_mean_ci_empty(self):
        m, lo, hi = mean_ci([])
        assert math.isnan(m)

    def test_bootstrap_ci_brackets_median(self):
        rng = np.random.default_rng(0)
        data = rng.normal(10.0, 1.0, size=200)
        stat, lo, hi = bootstrap_ci(data, statistic=np.median, seed=1)
        assert lo <= stat <= hi
        assert 9.0 < stat < 11.0

    def test_bootstrap_deterministic_with_seed(self):
        data = [1.0, 2.0, 3.0, 10.0]
        a = bootstrap_ci(data, seed=5)
        b = bootstrap_ci(data, seed=5)
        assert a == b

    def test_wilson_extremes(self):
        p, lo, hi = wilson_interval(0, 20)
        assert p == 0.0 and lo == 0.0 and hi > 0.0
        p, lo, hi = wilson_interval(20, 20)
        assert p == 1.0 and hi == 1.0 and lo < 1.0

    def test_wilson_validates(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 3)

    def test_wilson_zero_trials(self):
        p, lo, hi = wilson_interval(0, 0)
        assert math.isnan(p) and (lo, hi) == (0.0, 1.0)

    def test_ndtri_matches_norm_ppf(self):
        """The intervals' normal quantile comes from ndtri; it must equal
        norm.ppf bit for bit at every confidence level they could see."""
        from scipy.special import ndtri
        from scipy.stats import norm

        q = 0.5 + np.linspace(0.5, 0.9995, 1000, endpoint=False) / 2.0
        assert np.array_equal(ndtri(q), norm.ppf(q))
        assert float(ndtri(0.975)).hex() == "0x1.f5c0331eeff84p+0"

    def test_intervals_do_not_import_scipy_stats(self):
        """scipy.stats costs about half a second to import; a fresh
        interpreter computing both intervals must not load it."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )}
        code = (
            "import sys\n"
            "from repro.analysis.stats import mean_ci, wilson_interval\n"
            "wilson_interval(3, 10)\n"
            "mean_ci([1.0, 2.0, 4.0])\n"
            "print('scipy.stats' in sys.modules)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, env=env,
        )
        assert out.stdout.strip() == "False"


class TestTables:
    def test_format_basic(self):
        rows = [{"a": 1, "b": "x"}, {"a": 22, "b": None}]
        out = format_table(rows)
        lines = out.splitlines()
        assert "a" in lines[0] and "b" in lines[0]
        assert "-" in out  # separator and the None cell
        assert "22" in out

    def test_column_selection_and_order(self):
        rows = [{"a": 1, "b": 2, "c": 3}]
        out = format_table(rows, columns=["c", "a"])
        header = out.splitlines()[0]
        assert header.index("c") < header.index("a")
        assert "b" not in header

    def test_title(self):
        out = format_table([{"x": 1}], title="My Table")
        assert out.startswith("My Table")

    def test_empty_rows(self):
        assert "(no rows)" in format_table([])

    def test_bool_and_float_formatting(self):
        out = format_table([{"ok": True, "v": 0.123456, "w": 123456.0}])
        assert "yes" in out
        assert "0.123" in out
        assert "1.23e+05" in out

    def test_csv_roundtrip(self, tmp_path):
        rows = [{"a": 1, "b": 2.5}, {"a": 3, "b": 4.5}]
        path = tmp_path / "t.csv"
        write_csv(rows, path)
        text = path.read_text()
        assert text.splitlines()[0] == "a,b"
        assert "3,4.5" in text

    def test_records_to_csv_empty(self):
        assert records_to_csv([]) == ""
