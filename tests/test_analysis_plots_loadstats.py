"""Tests for the ASCII plots."""

import numpy as np
import pytest

from repro.analysis import histogram, series_panel, sparkline


class TestSparkline:
    def test_length_capped_by_width(self):
        s = sparkline(range(1000), width=50)
        assert len(s) <= 50

    def test_flat_zero_series(self):
        assert set(sparkline([0, 0, 0])) == {" "}

    def test_monotone_ramp(self):
        s = sparkline([0, 1, 2, 3, 4], width=5)
        # non-decreasing character density
        ramp = " .:-=+*#%@"
        levels = [ramp.index(ch) for ch in s]
        assert levels == sorted(levels)
        assert levels[-1] == len(ramp) - 1  # max maps to densest char

    def test_empty(self):
        assert sparkline([]) == ""

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sparkline([-1, 2])


class TestHistogram:
    def test_integer_loads_one_bin_each(self):
        out = histogram([0, 1, 1, 2, 2, 2], bins=10)
        lines = out.splitlines()
        # bins 0,1,2 plus the footer
        assert len(lines) == 4
        assert lines[2].strip().endswith("3")  # count of load-2

    def test_counts_sum(self):
        data = np.random.default_rng(0).integers(0, 5, 100)
        out = histogram(data)
        counts = [int(line.rsplit(" ", 1)[1]) for line in out.splitlines()[:-1]]
        assert sum(counts) == 100

    def test_empty(self):
        assert histogram([]) == "(no data)"


class TestSeriesPanel:
    def test_labels_and_rows(self):
        out = series_panel({"a": [1, 2, 3], "bb": [3, 2, 1]})
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[0].strip().startswith("a")
        assert "max=3" in lines[0]

    def test_empty(self):
        assert series_panel({}) == "(no series)"
