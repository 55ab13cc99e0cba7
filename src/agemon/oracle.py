"""Independent brute-force checks of the closed forms.

The quadrature path integrates the prior-weighted conditional densities
directly (the unsimplified expressions), so agreement with the algebraic
error-rate formula is a genuine cross-check rather than a tautology.

A threshold grid chains its integrals between consecutive thresholds
(quadrature_error_rates), so each QUADPACK call covers a short segment;
a one-point grid is exactly the single-threshold computation.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .analytics import (
    _outage_density_after,
    _outage_density_before,
    _working_density,
    error_rate_closed_form,
    failure_prior,
    mean_aoi_closed_form,
)
from .detector import DecisionRule, map_threshold
from .errors import OracleError, ParameterError, check_params
from .sim import SimParams, simulate
from .summary import MetricsSummary, check_resamples, period_table, summarize

_QUAD_ABSTOL = 1e-12
_QUAD_MAX_ERR = 1e-10
# A decaying chain (an integral to infinity, extended downward threshold by
# threshold) restarts from a fresh integral to infinity where the segment to
# the next threshold spans more than this many decay lengths 1/(lam + nu).
# Over 32 of them the density falls by e^-32 ~ 1e-14, so the 21-point rule on
# the segment can put no node where its mass is: it returns 0 with abserr 0,
# reports convergence, and the chain loses the segment's whole mass.
_RESTART_DECAY_LENGTHS = 32.0


def _quad(fn, lo, hi) -> tuple[float, float]:
    # imported here: scipy.integrate costs more to import than the rest of
    # agemon and numpy together, and only quadratures need it
    from scipy import integrate

    out = integrate.quad(fn, lo, hi, epsabs=_QUAD_ABSTOL, epsrel=1e-11, limit=300, full_output=1)
    value, abserr = out[0], out[1]
    if len(out) > 3 or abserr > _QUAD_MAX_ERR:
        raise OracleError(
            f"quadrature on [{lo}, {hi}] did not converge (abserr={abserr:.2e})"
        )
    return value, abserr


def _head_chain(fn, ts) -> tuple[list[float], list[float]]:
    """integral_0^t fn and its error bound at each of the ascending `ts`, each
    value the previous one plus the segment from the previous threshold."""
    values, errs = [], []
    value, err, lo = 0.0, 0.0, 0.0
    for t in ts:
        if t > 0:  # t = 0 adds nothing and takes no integral
            seg, seg_err = _quad(fn, lo, t)
            value, err, lo = seg + value, seg_err + err, t
        values.append(value)
        errs.append(err)
    return values, errs


def _tail_chain(fn, ts, restart: float) -> tuple[list[float], list[float]]:
    """integral_t^inf fn and its error bound at each of the ascending `ts`, each
    value the segment to the next threshold plus that threshold's value, or a
    fresh integral to infinity where the segment is longer than `restart`."""
    values, errs = [0.0] * len(ts), [0.0] * len(ts)
    for i in range(len(ts) - 1, -1, -1):
        if i == len(ts) - 1 or ts[i + 1] - ts[i] > restart:
            values[i], errs[i] = _quad(fn, ts[i], np.inf)
        else:
            seg, seg_err = _quad(fn, ts[i], ts[i + 1])
            values[i], errs[i] = seg + values[i + 1], seg_err + errs[i + 1]
    return values, errs


def quadrature_error_rate(lam: float, nu: float, r: float, tau: float) -> float:
    """Error probability of an arbitrary threshold tau by adaptive quadrature:

        P(working) * integral_tau^inf density(z | working) dz     (false positives)
      + P(failed)  * integral_0^tau  density(z | failed)  dz      (false negatives)

    The integrands are the unsimplified densities of pdf_z_given_r2/_r3,
    evaluated on plain floats after one check of the parameters.
    """
    return quadrature_error_rates(lam, nu, r, [tau])[0]


def quadrature_error_rates(lam: float, nu: float, r: float, taus) -> list[float]:
    """quadrature_error_rate at each of `taus` (any iterable, read once), all
    checked before any integral.

    Each distinct threshold is computed once, over the sorted thresholds
    t_1 < ... < t_m, by three chains of integrals between consecutive ones:
    the false positives downward from infinity, fp(t_i) = integral over
    [t_i, t_{i+1}] + fp(t_{i+1}); the outage mass below tau <= r upward from 0;
    and for tau > r the whole outage mass (over [0, r] and [r, inf), taken
    once) minus a tail chained downward like fp. A decaying chain restarts
    from a fresh integral to infinity across a gap longer than
    _RESTART_DECAY_LENGTHS / (lam + nu). A one-point grid is the plain
    one-point quadrature; a longer grid's values agree with it to rounding.
    Raises OracleError if the summed abserr of the integrals a value adds
    exceeds _QUAD_MAX_ERR.
    """
    taus = [float(tau) for tau in taus]
    check_params(lam=lam, nu=nu, r=r)
    for tau in taus:
        check_params(tau=tau)
    if not r > 0:
        raise ParameterError(f"r must be > 0, got {r}")
    ts, where = np.unique(taus, return_inverse=True)
    ts = ts.tolist()
    p_failed = failure_prior(nu, r)
    a = lam + nu
    restart = _RESTART_DECAY_LENGTHS / a
    outage = lambda z: _outage_density_before(z, a, r) if z < r else _outage_density_after(z, a, r)
    fp, fp_err = _tail_chain(lambda z: _working_density(z, a), ts, restart)
    split = bisect.bisect_right(ts, r)
    fn, fn_err = _head_chain(outage, ts[:split])
    if split < len(ts):
        # the density has a kink at z = r; past it, integrate the decaying
        # tail against an infinite limit (stable however large tau is)
        (head, head_err), (rest, rest_err) = _quad(outage, 0.0, r), _quad(outage, r, np.inf)
        whole, whole_err = head + rest, head_err + rest_err
        tail, tail_err = _tail_chain(outage, ts[split:], restart)
        fn += [whole - t for t in tail]
        fn_err += [whole_err + e for e in tail_err]
    rates = []
    for tau, f_p, f_n, e_p, e_n in zip(ts, fp, fn, fp_err, fn_err):
        if (err := e_p + e_n) > _QUAD_MAX_ERR:
            raise OracleError(f"quadrature error bound {err:.2e} at tau={tau} exceeds {_QUAD_MAX_ERR:.0e}")
        rates.append((1.0 - p_failed) * f_p + p_failed * f_n)
    return [rates[i] for i in where.tolist()]


def scan_optimal_threshold(lam: float, nu: float, r: float, grid) -> float:
    """Grid argmin of quadrature_error_rates; ties keep the first grid point."""
    grid = np.asarray(grid, dtype=np.float64)
    if grid.size == 0:
        raise ParameterError("threshold grid must be non-empty")
    return float(grid[int(np.argmin(quadrature_error_rates(lam, nu, r, grid)))])


@dataclass(frozen=True)
class CrossCheckReport:
    """Simulation vs closed forms at one parameter point.

    The closed-form error rate models the post-recovery reacquisition span
    as ordinary working time, so err_rel_dev compares it with the
    detection-scope empirical rate; the full-span rate is reported alongside
    and exceeds the detection-scope one by about (1/mu) / (1/nu + r).
    """

    params: SimParams
    tau: float
    degenerate: bool
    aoi_empirical: float
    aoi_analytic: float
    aoi_rel_dev: float
    aoi_ci_halfwidth: float
    err_empirical: float
    err_empirical_full: float
    err_analytic: float
    err_rel_dev: float
    err_ci_halfwidth: float
    fp_rate: float
    fn_rate: float

    def to_dict(self) -> dict:
        d = {
            "lam": self.params.lam,
            "mu": self.params.mu,
            "nu": self.params.nu,
            "r": self.params.r,
            "periods": self.params.periods,
            "seed": self.params.master_seed,
        }
        for name in (
            "tau", "degenerate", "aoi_empirical", "aoi_analytic", "aoi_rel_dev",
            "aoi_ci_halfwidth", "err_empirical", "err_empirical_full",
            "err_analytic", "err_rel_dev", "err_ci_halfwidth", "fp_rate", "fn_rate",
        ):
            d[name] = getattr(self, name)
        return d


def monte_carlo_cross_check(
    params: SimParams,
    rule: DecisionRule | None = None,
    resamples: int = 1000,
) -> CrossCheckReport:
    """Simulate, measure, and compare against the closed forms.

    Needs at least 10^4 periods; with fewer the Monte Carlo noise swamps the
    deviations this report is meant to expose. Needs r > 0: without outages
    the closed-form error rate is 0, and err_rel_dev divides by it.
    """
    if params.periods < 10_000:
        raise ParameterError("cross checks need periods >= 10000")
    check_resamples(resamples)
    params.require_stable_queue()
    if not params.r > 0:
        raise ParameterError(f"cross checks need r > 0, got {params.r}")
    if rule is None:
        rule = DecisionRule.map_rule(params.lam, params.nu, params.r)
    report: MetricsSummary = summarize(period_table(simulate(params)), rule, resamples=resamples)
    aoi_analytic = mean_aoi_closed_form(params.lam, params.mu, params.nu, params.r)
    err_analytic = (
        error_rate_closed_form(params.lam, params.nu, params.r)
        if rule.tau == map_threshold(params.lam, params.nu)
        else quadrature_error_rate(params.lam, params.nu, params.r, rule.tau)
    )
    err_emp = report.error.detection_error_rate
    return CrossCheckReport(
        params=params,
        tau=rule.tau,
        degenerate=rule.degenerate,
        aoi_empirical=report.aoi_time_average,
        aoi_analytic=aoi_analytic,
        aoi_rel_dev=report.aoi_time_average / aoi_analytic - 1.0,
        aoi_ci_halfwidth=report.aoi_ci_halfwidth,
        err_empirical=err_emp,
        err_empirical_full=report.error.error_rate,
        err_analytic=err_analytic,
        err_rel_dev=err_emp / err_analytic - 1.0,
        err_ci_halfwidth=report.error_ci_halfwidth,
        fp_rate=report.error.fp_rate,
        fn_rate=report.error.fn_rate,
    )
