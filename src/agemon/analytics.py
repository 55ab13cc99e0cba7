"""Closed-form expressions for the optimal detector, its error rate, and
the mean age of information with failures and recoveries.

The monitor never observes the sensor directly. It tracks the gap age
z(t) = t - (last arrival at or before t) and declares a failure while z
exceeds a threshold tau, so a rule is its threshold. The optimal threshold
compares the prior-weighted densities of z under the two states; when it is
at least the recovery duration the rule collapses to always declaring the
sensor operational, the threshold tau = inf.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError, check_params


def map_threshold(lam: float, nu: float) -> float:
    """Optimal gap-age threshold log(lam/nu + 2) / (lam + nu)."""
    check_params(lam=lam, nu=nu)
    return math.log(lam / nu + 2.0) / (lam + nu)


def failure_prior(nu: float, r: float) -> float:
    """Long-run fraction of time the sensor is failed: r*nu / (1 + r*nu)."""
    check_params(nu=nu, r=r)
    return r * nu / (1.0 + r * nu)


# The gap age's densities, each branch once, unchecked, for a float or an array
# z and a = lam + nu. In normal operation z ~ Exp(a): neither a delivery nor a
# failure for z seconds. In an outage z is the gap age at the failure plus a
# uniform elapsed time in [0, r]: (1 - e^(-a z)) / r below r and
# e^(-a z) (e^(a r) - 1) / r from r on, continuous at r.
# numpy's exp/expm1 give a float the same bits as an array element; math's do not.
def _working_density(z, a):
    return a * np.exp(-a * z)


def _outage_density_before(z, a, r):
    return -np.expm1(-a * z) / r


def _outage_density_after(z, a, r):
    return np.exp(-a * z) * np.expm1(a * r) / r


def _outage_density(z, a, r):
    """The outage density at a float or an array z, each point on the branch
    that z < r picks; a branch is evaluated only where it is taken."""
    if isinstance(z, float):
        return _outage_density_before(z, a, r) if z < r else _outage_density_after(z, a, r)
    out = np.empty_like(z)
    before = z < r
    out[before] = _outage_density_before(z[before], a, r)
    if not before.all():
        out[~before] = _outage_density_after(z[~before], a, r)
    return out


def _check_outage_tail(a, r):
    """Raise unless expm1(a r) is finite: past r the outage density would be
    exp(-a z) * inf, inf or NaN."""
    try:
        math.expm1(a * r)
    except OverflowError:
        raise ParameterError(
            f"(lam + nu) * r = {a * r:.6g} overflows exp in the outage density past r (limit ~709.78)"
        ) from None


def error_rate_closed_form(lam: float, nu: float, r: float) -> float:
    """Long-run error probability of the optimal threshold rule.

    For tau < r:
        E = 1/(1 + r nu) * nu/(lam + 2 nu)
          + nu/(1 + r nu) * (log(lam/nu + 2) + nu/(lam + 2 nu) - 1) / (lam + nu)
    For tau >= r the rule always declares WORKING, so the error is exactly
    the failed-time prior r nu / (1 + r nu), which is 0 at r = 0.
    """
    check_params(lam=lam, nu=nu, r=r)
    tau = map_threshold(lam, nu)
    if tau >= r:
        return failure_prior(nu, r)
    fp = 1.0 / (1.0 + r * nu) * nu / (lam + 2.0 * nu)
    fn = (
        nu
        / (1.0 + r * nu)
        * (math.log(lam / nu + 2.0) + nu / (lam + 2.0 * nu) - 1.0)
        / (lam + nu)
    )
    return fp + fn


def aoi_mm1(rho: float, mu: float) -> float:
    """Steady-state mean age of a stable M/M/1 FCFS update stream:
    (1/mu) * (1 + 1/rho + rho^2 / (1 - rho))."""
    check_params(mu=mu)
    if not 0 < rho < 1:
        raise ParameterError(f"rho must be in (0, 1), got {rho}")
    return (1.0 + 1.0 / rho + rho * rho / (1.0 - rho)) / mu


def mean_aoi_closed_form(lam: float, mu: float, nu: float, r: float) -> float:
    """Mean age with failures: the M/M/1 value plus the outage penalty
    (r^2/2 + r/mu + 1/mu^2) * nu / (1 + r nu)."""
    check_params(lam=lam, mu=mu, nu=nu, r=r)
    base = aoi_mm1(lam / mu, mu)
    return base + (r * r / 2.0 + r / mu + 1.0 / (mu * mu)) * nu / (1.0 + r * nu)


def region_means_closed_form(lam: float, mu: float, nu: float, r: float) -> tuple[float, float, float]:
    """Expected per-region mean ages (reacquisition, normal operation, outage):
    (mm1 + r + 1/(2 mu), mm1, mm1 + r/2)."""
    check_params(lam=lam, mu=mu, nu=nu, r=r)
    base = aoi_mm1(lam / mu, mu)
    return base + r + 0.5 / mu, base, base + 0.5 * r


def analytic_report(lam: float, mu: float, nu: float, r: float) -> dict:
    """Every closed form at one parameter point, keyed by its column in
    `report.COLUMNS` (the rule is the optimal one)."""
    # before aoi_mm1's lam / mu below
    check_params(lam=lam, mu=mu, nu=nu, r=r)
    tau = map_threshold(lam, nu)
    return dict(
        lam=lam,
        mu=mu,
        nu=nu,
        r=r,
        tau=tau,
        degenerate=tau >= r,
        err_analytic=error_rate_closed_form(lam, nu, r),
        aoi_mm1=aoi_mm1(lam / mu, mu),
        aoi_analytic=mean_aoi_closed_form(lam, mu, nu, r),
        prior_s1=failure_prior(nu, r),
    )
