"""Parameter sweeps producing rows of analytic and empirical metrics.

Every grid point reuses the same master seed, so each row's empirical
columns can be reproduced from the recorded seed alone. The points of a rho
sweep share their failure clocks bit for bit (the simulator draws them
before anything that depends on lam); gaps and services are not coupled.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .analytics import error_rate_closed_form, mean_aoi_closed_form
from .detector import DecisionRule
from .errors import ParameterError, check_params
from .oracle import quadrature_error_rates
from .sim import SimParams, simulate
from .summary import MetricsSummary, check_resamples, period_table, summarize, summarize_rules

SWEEP_VARIABLES = ("rho", "expected_T", "threshold")
# checked before a grid is allocated; far above any grid the CLI uses by default
MAX_GRID_POINTS = 10**6


@dataclass(frozen=True)
class SweepSpec:
    """An inclusive arithmetic grid over one variable, the rest held fixed.

    variable is one of "rho" (service utilization, lam = rho * mu),
    "expected_T" (mean working time, nu = 1 / expected_T) or "threshold"
    (detector threshold on a single shared simulation).
    """

    variable: str
    start: float
    stop: float
    step: float
    fixed: SimParams

    def __post_init__(self) -> None:
        if self.variable not in SWEEP_VARIABLES:
            raise ParameterError(f"unknown sweep variable {self.variable!r}")
        check_params(start=self.start, stop=self.stop, step=self.step)
        if not self.step > 0:
            raise ParameterError("step must be > 0")
        if not self.start < self.stop:
            raise ParameterError("start must be < stop")
        points = (self.stop - self.start) / self.step + 1
        if not points <= MAX_GRID_POINTS:
            raise ParameterError(f"grid has {points:.3g} points, more than the {MAX_GRID_POINTS} allowed")
        if self.variable == "rho" and (self.start <= 0 or self.stop >= 1):
            raise ParameterError("swept rho values must stay in (0, 1)")
        if self.variable == "expected_T" and self.start <= 0:
            raise ParameterError("expected_T grid must be positive")
        if self.variable == "threshold" and self.start < 0:
            raise ParameterError("threshold grid must be nonnegative")

    def grid(self) -> np.ndarray:
        n = int(round((self.stop - self.start) / self.step)) + 1
        values = self.start + self.step * np.arange(n)
        return values[values <= self.stop + 1e-9 * self.step]


@dataclass
class ResultRow:
    """One CSV row; empirical fields are None for analytic-only runs."""

    swept_var: str
    swept_value: float
    aoi_analytic: Optional[float] = None
    aoi_empirical: Optional[float] = None
    aoi_ci: Optional[float] = None
    err_analytic: Optional[float] = None
    err_empirical: Optional[float] = None
    err_ci: Optional[float] = None
    fp_rate: Optional[float] = None
    fn_rate: Optional[float] = None
    seed: Optional[int] = None

    def add_empirical(self, report: MetricsSummary, resamples: int) -> None:
        """Fill the empirical columns from `report`; the half-widths only
        when a bootstrap ran (resamples > 0)."""
        self.aoi_empirical = report.aoi_time_average
        self.err_empirical = report.error.error_rate
        self.fp_rate = report.error.fp_rate
        self.fn_rate = report.error.fn_rate
        self.seed = report.seed
        if resamples > 0:
            self.aoi_ci = report.aoi_ci_halfwidth
            self.err_ci = report.error_ci_halfwidth


def _point_row(params: SimParams, var: str, value: float, with_sim: bool, resamples: int) -> ResultRow:
    params.require_stable_queue()
    row = ResultRow(
        swept_var=var,
        swept_value=float(value),
        aoi_analytic=mean_aoi_closed_form(params.lam, params.mu, params.nu, params.r),
        err_analytic=error_rate_closed_form(params.lam, params.nu, params.r),
    )
    if with_sim:
        row.add_empirical(summarize(period_table(simulate(params)), resamples=resamples), resamples)
    return row


def run_sweep(spec: SweepSpec, with_sim: bool = True, resamples: int = 1000) -> list[ResultRow]:
    """Evaluate every grid point in grid order."""
    check_resamples(resamples)
    if spec.variable == "threshold":
        return _threshold_sweep(spec, with_sim, resamples)
    rows = []
    for value in spec.grid():
        if spec.variable == "rho":
            params = replace(spec.fixed, lam=float(value) * spec.fixed.mu)
        else:
            params = replace(spec.fixed, nu=1.0 / float(value))
        rows.append(_point_row(params, spec.variable, float(value), with_sim, resamples))
    return rows


def _threshold_sweep(spec: SweepSpec, with_sim: bool, resamples: int) -> list[ResultRow]:
    """One simulation, many rules: the error of each threshold is measured on
    the same timeline, so differences between rows are not simulation noise.
    The period table is built once; each rule recomputes only its own columns,
    and one bootstrap serves every rule.
    The analytic columns come first, so a point outside their domain fails
    before the simulation runs."""
    params = spec.fixed
    params.require_stable_queue()
    aoi_analytic = mean_aoi_closed_form(params.lam, params.mu, params.nu, params.r)
    grid = spec.grid()
    rows = [
        ResultRow(swept_var="threshold", swept_value=float(value), aoi_analytic=aoi_analytic, err_analytic=err)
        for value, err in zip(grid, quadrature_error_rates(params.lam, params.nu, params.r, grid))
    ]
    if with_sim:
        rules = [DecisionRule.with_threshold(row.swept_value, params.r) for row in rows]
        reports = summarize_rules(period_table(simulate(params)), rules, resamples=resamples)
        for row, report in zip(rows, reports):
            row.add_empirical(report, resamples)
    return rows
