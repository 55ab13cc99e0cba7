"""Parameter sweeps producing rows of analytic and empirical metrics.

Every grid point reuses the same master seed, so each row's empirical
columns can be reproduced from the recorded seed alone. The points of a rho
sweep share their failure clocks bit for bit (the simulator draws them
before anything that depends on lam); gaps and services are not coupled.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .analytics import error_rate_closed_form, mean_aoi_closed_form
from .detector import DecisionRule
from .errors import ParameterError, check_params
from .oracle import quadrature_error_rates
from .report import run_row
from .sim import SimParams, simulate
from .summary import check_resamples, period_table, summarize, summarize_rules

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


def _point_row(params: SimParams, var: str, value: float, with_sim: bool, resamples: int) -> dict:
    params.require_stable_queue()
    closed = dict(
        aoi_analytic=mean_aoi_closed_form(params.lam, params.mu, params.nu, params.r),
        err_analytic=error_rate_closed_form(params.lam, params.nu, params.r),
    )
    summary = summarize(period_table(simulate(params)), resamples=resamples) if with_sim else None
    return run_row(params, summary, swept_var=var, swept_value=float(value), **closed)


def run_sweep(spec: SweepSpec, with_sim: bool = True, resamples: int = 1000) -> list[dict]:
    """Evaluate every grid point in grid order, one `report.run_row` each."""
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


def _threshold_sweep(spec: SweepSpec, with_sim: bool, resamples: int) -> list[dict]:
    """One simulation, many rules: the error of each threshold is measured on
    the same timeline, so differences between rows are not simulation noise.
    The period table is built once; each rule recomputes only its own columns,
    and one bootstrap serves every rule.
    The analytic columns come first, so a point outside their domain fails
    before the simulation runs."""
    params = spec.fixed
    params.require_stable_queue()
    aoi_analytic = mean_aoi_closed_form(params.lam, params.mu, params.nu, params.r)
    grid = spec.grid().tolist()
    errs = quadrature_error_rates(params.lam, params.nu, params.r, grid)
    summaries = [None] * len(grid)
    if with_sim:
        rules = [DecisionRule.with_threshold(value, params.r) for value in grid]
        summaries = summarize_rules(period_table(simulate(params)), rules, resamples=resamples)
    return [
        run_row(params, summary, swept_var="threshold", swept_value=value,
                aoi_analytic=aoi_analytic, err_analytic=err)
        for value, err, summary in zip(grid, errs, summaries)
    ]
