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


def error_rate(lam: float, nu: float, r: float, taus) -> list[float]:
    """Long-run error probability of the rule "FAILED while z > tau" at each
    of `taus` (any iterable, read once, every threshold checked before any
    value is computed), in closed form.

    In normal operation the gap age z is exponential with rate a = lam + nu
    (neither a delivery nor a failure for z seconds), so a false positive
    has probability exp(-a tau). In an outage z is the gap age at the
    failure plus a uniform elapsed time in [0, r], with density
    (1 - e^(-a z)) / r below r and e^(-a z) (e^(a r) - 1) / r from r on. A
    false negative has probability F(tau), its integral from 0 to tau:

        F(tau) = (tau + expm1(-a tau) / a) / r                     for tau <= r,
        F(tau) = 1 - exp(-a (tau - r)) (-expm1(-a r)) / (a r)      for tau > r,

    and the error rate is (1 - p) exp(-a tau) + p F(tau) with p the
    failed-time prior. Each branch is evaluated only where it is taken.
    Terms that underflow are 0 or subnormal, as they should be.
    """
    taus = [float(tau) for tau in taus]
    check_params(lam=lam, nu=nu, r=r)
    for tau in taus:
        check_params(tau=tau)
    if not r > 0:
        raise ParameterError(f"r must be > 0, got {r}")
    p = failure_prior(nu, r)
    a = lam + nu
    t = np.array(taus)
    missed = np.empty_like(t)
    below = t <= r
    with np.errstate(under="ignore"):
        head, tail = t[below], t[~below]
        missed[below] = (head + np.expm1(-a * head) / a) / r
        missed[~below] = 1.0 - np.exp(-a * (tail - r)) * (-math.expm1(-a * r)) / (a * r)
        return ((1.0 - p) * np.exp(-a * t) + p * missed).tolist()


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

