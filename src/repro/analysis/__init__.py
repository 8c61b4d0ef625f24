"""Fitting, statistics and table formatting for experiment output."""

from .fitting import FitResult, fit_linear, fit_log2, fit_powerlaw
from .plots import histogram, series_panel, sparkline
from .stats import bootstrap_ci, mean_ci, wilson_interval
from .tables import format_table, records_to_csv, write_csv

__all__ = [
    "FitResult",
    "fit_log2",
    "fit_linear",
    "fit_powerlaw",
    "mean_ci",
    "bootstrap_ci",
    "wilson_interval",
    "format_table",
    "write_csv",
    "records_to_csv",
    "sparkline",
    "histogram",
    "series_panel",
]
