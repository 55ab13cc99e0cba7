"""Independent brute-force checks of the closed forms.

The quadrature path integrates the prior-weighted conditional densities
directly (the unsimplified expressions), so agreement with the algebraic
error-rate formula is a genuine cross-check rather than a tautology.

A threshold grid chains its integrals between consecutive thresholds
(quadrature_error_rates). QUADPACK's first qagse step, the 21-point
Gauss-Kronrod rule and its stopping test, runs on all of a chain's finite
segments in one numpy pass and in QUADPACK's order of arithmetic, so each
value has the bits scipy.integrate.quad gives it. Only the segments on which
qagse would go on, and the integrals to infinity, call scipy.integrate.quad.
A one-point grid is exactly the single-threshold computation.
"""

from __future__ import annotations

import bisect
from itertools import accumulate

import numpy as np

from .analytics import _check_outage_tail, _outage_density, _working_density, failure_prior
from .errors import OracleError, ParameterError, check_params

_QUAD_EPSABS, _QUAD_EPSREL = 1e-12, 1e-11
_QUAD_MAX_ERR = 1e-10
# A decaying chain (an integral to infinity, extended downward threshold by
# threshold) restarts from a fresh integral to infinity where the segment to
# the next threshold spans more than this many decay lengths 1/(lam + nu).
# Over 32 of them the density falls by e^-32 ~ 1e-14, so the 21-point rule on
# the segment can put no node where its mass is: it returns 0 with abserr 0,
# reports convergence, and the chain loses the segment's whole mass.
_RESTART_DECAY_LENGTHS = 32.0

# QUADPACK's dqk21 (Piessens et al., QUADPACK, 1983), in its decimals: the
# Kronrod nodes x_0 > ... > x_9 > 0 (the odd ones are the 10-point Gauss
# nodes), the Kronrod weights of x_0, ..., x_9 and of the centre 0, and the
# Gauss weights
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452, 0.930157491355708226001207180059508,
    0.865063366688984510732096688423493, 0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784, 0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390, 0.054755896574351996031381300244580,
    0.075039674810919952767043140916190, 0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208794696163, 0.134709217311473325928054001771707, 0.142775938577060080797094273138717,
    0.147739104901338491374841515972068, 0.149445554002916905664936468389821,
])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697, 0.219086362515982043995534934228163,
    0.269266719309996355091226921569469, 0.295524224714752870173892994651338,
])
_EPMACH, _UFLOW = np.finfo(np.float64).eps, np.finfo(np.float64).tiny
# relative distance from qagse's acceptance bounds inside which a segment
# goes to _quad: numpy's ** and C's pow may differ in the last bit of abserr
_ACCEPT_MARGIN = 1e-9


def _quad(fn, lo, hi) -> tuple[float, float]:
    # imported here: scipy.integrate costs more to import than the rest of
    # agemon and numpy together, and only quadratures need it
    from scipy import integrate

    out = integrate.quad(fn, lo, hi, epsabs=_QUAD_EPSABS, epsrel=_QUAD_EPSREL, limit=300, full_output=1)
    value, abserr = out[0], out[1]
    if len(out) > 3 or abserr > _QUAD_MAX_ERR:
        raise OracleError(
            f"quadrature on [{lo}, {hi}] did not converge (abserr={abserr:.2e})"
        )
    return value, abserr


def _kronrod21(density, lo, hi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """QUADPACK's first qagse step on each finite segment [lo_i, hi_i] of two
    arrays: dqk21's value and abserr, in dqk21's order of arithmetic, and
    whether qagse would return them after that step. `density` is evaluated
    once, on the (21, m) array of abscissae."""
    centr, hlgth = 0.5 * (lo + hi), 0.5 * (hi - lo)
    absc = hlgth * _XGK[:, None]
    f = density(np.concatenate((centr[None], centr - absc, centr + absc)))
    fc, fv1, fv2 = f[0], f[1:11], f[11:]
    # each weighted term as dqk21 forms it; builtin sum adds the rows left
    # to right onto its start, as dqk21's loops do (the Gauss nodes first)
    order = [1, 3, 5, 7, 9, 0, 2, 4, 6, 8]
    wgk = _WGK[:10, None]
    resg = sum(_WG[:, None] * (fv1[1::2] + fv2[1::2]), 0.0)
    resk = sum((wgk * (fv1 + fv2))[order], _WGK[10] * fc)
    resabs = sum((wgk * (np.abs(fv1) + np.abs(fv2)))[order], np.abs(_WGK[10] * fc))
    reskh = resk * 0.5
    resasc = sum(wgk * (np.abs(fv1 - reskh) + np.abs(fv2 - reskh)), _WGK[10] * np.abs(fc - reskh))
    result = resk * hlgth
    resabs, resasc = resabs * np.abs(hlgth), resasc * np.abs(hlgth)
    abserr = np.abs((resk - resg) * hlgth)
    scaled = (resasc != 0.0) & (abserr != 0.0)
    ratio = 200.0 * abserr / np.where(scaled, resasc, 1.0)
    abserr = np.where(scaled, resasc * np.minimum(1.0, ratio**1.5), abserr)
    floor = resabs > _UFLOW / (50.0 * _EPMACH)
    abserr = np.where(floor, np.maximum((_EPMACH * 50.0) * resabs, abserr), abserr)
    # qagse stops if abserr <= max(epsabs, epsrel |result|) and abserr !=
    # resasc, or if abserr == 0
    errbnd = np.maximum(_QUAD_EPSABS, _QUAD_EPSREL * np.abs(result))
    stops = (abserr <= (1.0 - _ACCEPT_MARGIN) * errbnd) & (np.abs(abserr - resasc) > _ACCEPT_MARGIN * resasc)
    return result, abserr, stops | (abserr == 0.0)


def _integrals(density, lo, hi) -> tuple[list[float], list[float]]:
    """integral_lo_i^hi_i density and its abserr over finite segments: one
    _kronrod21 pass, then _quad on each segment where qagse would go on."""
    if not lo:
        return [], []
    lo, hi = np.array(lo), np.array(hi)
    values, errs, stops = _kronrod21(density, lo, hi)
    values, errs = values.tolist(), errs.tolist()
    for i in np.flatnonzero(~stops).tolist():
        values[i], errs[i] = _quad(density, float(lo[i]), float(hi[i]))
    return values, errs


def _head_chain(fn, ts) -> tuple[list[float], list[float]]:
    """integral_0^t fn and its error bound at each of the ascending `ts`, each
    value the previous one plus the segment from the previous threshold."""
    cuts = [0.0] + [t for t in ts if t > 0]
    zeros = [0.0] * (len(ts) + 1 - len(cuts))  # t = 0 adds nothing and takes no integral
    segs, seg_errs = _integrals(fn, cuts[:-1], cuts[1:])
    return zeros + list(accumulate(segs)), zeros + list(accumulate(seg_errs))


def _tail_chain(fn, ts, restart: float) -> tuple[list[float], list[float]]:
    """integral_t^inf fn and its error bound at each of the ascending `ts`, each
    value the segment to the next threshold plus that threshold's value, or a
    fresh integral to infinity where the segment is longer than `restart`."""
    chained = [i for i in range(len(ts) - 1) if not ts[i + 1] - ts[i] > restart]
    segs = dict(zip(chained, zip(*_integrals(fn, [ts[i] for i in chained], [ts[i + 1] for i in chained]))))
    values, errs = [0.0] * len(ts), [0.0] * len(ts)
    for i in range(len(ts) - 1, -1, -1):
        if i in segs:
            values[i], errs[i] = segs[i][0] + values[i + 1], segs[i][1] + errs[i + 1]
        else:
            values[i], errs[i] = _quad(fn, ts[i], np.inf)
    return values, errs


def quadrature_error_rates(lam: float, nu: float, r: float, taus) -> list[float]:
    """Error probability of the rule "FAILED while z > tau" at each of `taus`
    (any iterable, read once, all checked before any integral), by adaptive
    quadrature:

        P(working) * integral_tau^inf density(z | working) dz     (false positives)
      + P(failed)  * integral_0^tau  density(z | failed)  dz      (false negatives)

    The integrands are the unsimplified gap-age densities of `analytics`,
    evaluated unchecked after one check of the parameters.

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
    exceeds _QUAD_MAX_ERR, and ParameterError before any integral if a
    threshold lies above r and (lam + nu) * r overflows exp.
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
    split = bisect.bisect_right(ts, r)
    if split < len(ts):
        _check_outage_tail(a, r)
    outage = lambda z: _outage_density(z, a, r)
    fp, fp_err = _tail_chain(lambda z: _working_density(z, a), ts, restart)
    fn, fn_err = _head_chain(outage, ts[:split])
    if split < len(ts):
        # the density has a kink at z = r; past it, integrate the decaying
        # tail against an infinite limit (stable however large tau is)
        ([head], [head_err]), (rest, rest_err) = _integrals(outage, [0.0], [r]), _quad(outage, r, np.inf)
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
