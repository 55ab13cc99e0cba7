"""Discrete-event simulator and closed-form analytics for a status-update
stream from an intermittently failing sensor behind an M/M/1 FCFS queue:
age-of-information metrics, timing-based failure detection, and Monte Carlo
validation of the analytical expressions."""

from .analytics import (
    aoi_mm1,
    error_rate_closed_form,
    failure_prior,
    map_threshold,
    mean_aoi_closed_form,
    region_means_closed_form,
)
from .errors import EmptyTimelineError, ParameterError, SimulationLimitError
from .experiments import SweepSpec, monte_carlo_cross_check, run_sweep
from .report import render_svg, write_csv
from .sim import SimParams
from .summary import PeriodTable, simulate_table, summarize

__version__ = "0.1.0"

__all__ = [
    "EmptyTimelineError",
    "ParameterError",
    "PeriodTable",
    "SimParams",
    "SimulationLimitError",
    "SweepSpec",
    "aoi_mm1",
    "error_rate_closed_form",
    "failure_prior",
    "map_threshold",
    "mean_aoi_closed_form",
    "monte_carlo_cross_check",
    "region_means_closed_form",
    "render_svg",
    "run_sweep",
    "simulate_table",
    "summarize",
    "write_csv",
]
