"""How a run becomes rows of analytic and empirical metrics (`measure`),
and the parameter sweeps and the Monte Carlo cross-check built on it.

Every grid point reuses the same master seed, so each row's empirical
columns can be reproduced from the recorded seed alone. The points of a rho
sweep share their failure clocks bit for bit (the simulator draws them
before anything that depends on lam); gaps and services are not coupled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .analytics import aoi_mm1, error_rate, error_rate_closed_form, failure_prior, map_threshold, mean_aoi_closed_form
from .errors import ParameterError, check_params
from .report import run_row
from .sim import SimParams
from .summary import simulate_table, summarize

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


def measure(params: SimParams, taus=None, with_sim: bool = True, **columns) -> list[dict]:
    """A run's rows: one `report.run_row` per threshold of `taus` (any
    iterable), or one for the optimal threshold when taus is None, each with
    `columns` added.

    Whatever can fail without a simulation fails first: a `taus` with no
    threshold, rho < 1, then the closed forms. Every row holds the closed
    forms, its tau and whether it is degenerate. err_analytic is
    `analytics.error_rate_closed_form` at the optimal threshold and
    `analytics.error_rate` at any other. Only the optimal threshold at
    tau >= r is degenerate: the optimal rule then always declares WORKING
    (it is scored as tau = inf) and its closed form is the failed-time
    prior. Every other threshold is scored as the rule
    "FAILED while z > tau" whose error rate `error_rate` gives. With
    `with_sim`, one simulation's period table, built run by run by
    `summary.simulate_table`, serves every threshold, so differences
    between rows are not simulation noise, and each row gets the 95%
    half-widths of `summary.summarize`. Rows without a simulation refuse
    `require_delivery`: the closed forms describe unconditioned runs.
    """
    taus = None if taus is None else list(taus)
    if taus == []:
        raise ParameterError("taus must hold at least one threshold, got none")
    if params.require_delivery and not with_sim:
        raise ParameterError("require_delivery needs a simulation: the closed forms describe unconditioned runs")
    params.require_stable_queue()
    lam, mu, nu, r = params.lam, params.mu, params.nu, params.r
    base = run_row(params, aoi_analytic=mean_aoi_closed_form(lam, mu, nu, r), aoi_mm1=aoi_mm1(params.rho, mu),
                   prior_s1=failure_prior(nu, r), **columns)
    optimal = map_threshold(lam, nu)
    taus = [optimal] if taus is None else taus
    closed = error_rate_closed_form(lam, nu, r)
    errs = [closed] * len(taus)
    if any(tau != optimal for tau in taus):
        errs = [closed if tau == optimal else err for tau, err in zip(taus, error_rate(lam, nu, r, taus))]
    degenerate = [tau == optimal and tau >= r for tau in taus]
    rows = [dict(base, tau=float(tau), degenerate=d, err_analytic=err)
            for tau, d, err in zip(taus, degenerate, errs)]
    if with_sim:
        scored = [math.inf if d else tau for tau, d in zip(taus, degenerate)]
        for row, summary in zip(rows, summarize(simulate_table(params, scored))):
            row.update(summary)
            if len(row) > len(base):  # run_row's check, for summarize's columns
                raise ParameterError(f"unknown columns {sorted(row.keys() - base.keys())}")
    return rows


def run_sweep(spec: SweepSpec, with_sim: bool = True) -> list[dict]:
    """Evaluate every grid point in grid order, one `report.run_row` each,
    with 95% half-widths when simulated. A threshold sweep scores every
    threshold on one simulation."""
    grid = spec.grid().tolist()
    if spec.variable == "threshold":
        rows = measure(spec.fixed, grid, with_sim, swept_var="threshold")
        for row, value in zip(rows, grid):
            row["swept_value"] = value
        return rows
    rows = []
    for value in grid:
        if spec.variable == "rho":
            params = replace(spec.fixed, lam=value * spec.fixed.mu)
        else:
            params = replace(spec.fixed, nu=1.0 / value)
        rows += measure(params, with_sim=with_sim, swept_var=spec.variable, swept_value=value)
    return rows


def monte_carlo_cross_check(params: SimParams) -> dict:
    """Simulate, measure, and compare against the closed forms; returns the
    run's `measure` row for the optimal threshold with the relative
    deviations.

    The closed-form error rate models the post-recovery reacquisition span
    as ordinary working time, so err_rel_dev compares it with the
    detection-scope empirical rate, err_detection; the full-span rate
    err_empirical exceeds it by about (1/mu) / (1/nu + r). Each rate has
    its own 95% half-width, err_detection_ci and err_ci (validate publishes
    the detection-scope rate and its half-width as err_empirical and
    err_ci_halfwidth, and the full-span rate as err_empirical_full).

    Needs at least 10^4 periods; with fewer the Monte Carlo noise swamps the
    deviations this report is meant to expose. Needs r > 0: without outages
    the closed-form error rate is 0, and err_rel_dev divides by it.
    """
    if params.periods < 10_000:
        raise ParameterError("cross checks need periods >= 10000")
    if not params.r > 0:
        raise ParameterError(f"cross checks need r > 0, got {params.r}")
    [row] = measure(params)
    row.update(aoi_rel_dev=row["aoi_empirical"] / row["aoi_analytic"] - 1.0,
               err_rel_dev=row["err_detection"] / row["err_analytic"] - 1.0)
    return row
