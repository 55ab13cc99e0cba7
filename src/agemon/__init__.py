"""Discrete-event simulator and closed-form analytics for a status-update
stream from an intermittently failing sensor behind an M/M/1 FCFS queue:
age-of-information metrics, timing-based failure detection, and Monte Carlo
validation of the analytical expressions."""

from .analytics import (
    AnalyticReport,
    analytic_report,
    aoi_mm1,
    error_rate_closed_form,
    failure_prior,
    mean_aoi_closed_form,
    pdf_z_given_r2,
    pdf_z_given_r3,
    region_means_closed_form,
)
from .aoi import (
    AoiTrajectory,
    RegionAverages,
    age_trajectory,
    time_average_aoi,
)
from .detector import (
    DecisionRule,
    ErrorBreakdown,
    SensorState,
    StateIntervals,
    decide,
    estimated_state_trajectory,
    map_threshold,
)
from .errors import EmptyTimelineError, OracleError, ParameterError, SimulationLimitError
from .experiments import ResultRow, SweepSpec, run_sweep
from .oracle import (
    CrossCheckReport,
    monte_carlo_cross_check,
    quadrature_error_rate,
    scan_optimal_threshold,
)
from .report import CSV_COLUMNS, CSV_HEADER, read_csv, render_svg, write_csv
from .sim import (
    EVENT_CAP,
    PeriodStreams,
    PeriodTrace,
    SimParams,
    Timeline,
    generate_period,
    lindley_arrival_times,
    period_streams,
    simulate,
)
from .summary import MetricsSummary, PeriodTable, period_table, summarize

__version__ = "0.1.0"

__all__ = [
    "AnalyticReport",
    "AoiTrajectory",
    "CSV_COLUMNS",
    "CSV_HEADER",
    "CrossCheckReport",
    "DecisionRule",
    "EVENT_CAP",
    "EmptyTimelineError",
    "ErrorBreakdown",
    "MetricsSummary",
    "OracleError",
    "ParameterError",
    "PeriodStreams",
    "PeriodTable",
    "PeriodTrace",
    "RegionAverages",
    "ResultRow",
    "SensorState",
    "SimParams",
    "SimulationLimitError",
    "StateIntervals",
    "SweepSpec",
    "Timeline",
    "age_trajectory",
    "analytic_report",
    "aoi_mm1",
    "decide",
    "error_rate_closed_form",
    "estimated_state_trajectory",
    "failure_prior",
    "generate_period",
    "lindley_arrival_times",
    "map_threshold",
    "mean_aoi_closed_form",
    "monte_carlo_cross_check",
    "pdf_z_given_r2",
    "pdf_z_given_r3",
    "period_streams",
    "period_table",
    "quadrature_error_rate",
    "read_csv",
    "region_means_closed_form",
    "render_svg",
    "run_sweep",
    "scan_optimal_threshold",
    "simulate",
    "summarize",
    "time_average_aoi",
    "write_csv",
]
