import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq, minimize_scalar

from agemon import (
    ParameterError,
    SimParams,
    aoi_mm1,
    error_rate_closed_form,
    failure_prior,
    map_threshold,
    mean_aoi_closed_form,
    region_means_closed_form,
)
from agemon.analytics import error_rate
from agemon.experiments import measure
from agemon.report import project
from reference import pdf_z_given_r2, pdf_z_given_r3

LAM, MU, NU, R = 0.5, 1.0, 0.005, 20.0
STANDARD = dict(lam=LAM, mu=MU, nu=NU, r=R)
# frozen by direct evaluation of the formulas at the standard configuration
ERROR_RATE_DEFAULT = 0.041628918211379574
MEAN_AOI_DEFAULT = 4.504545454545454


class TestGapDensities:
    def test_working_density_at_origin(self):
        assert pdf_z_given_r2(0.0, LAM, NU) == LAM + NU

    def test_working_density_point_value(self):
        # 0.505 * exp(-0.505 * 9.16)
        assert pdf_z_given_r2(9.16, LAM, NU) == pytest.approx(4.9469e-3, abs=1e-6)

    def test_working_density_normalizes(self):
        value, err = quad(lambda z: pdf_z_given_r2(z, LAM, NU), 0, np.inf)
        assert abs(value - 1.0) < 1e-9

    def test_outage_density_at_origin(self):
        assert pdf_z_given_r3(0.0, LAM, NU, R) == 0.0

    def test_outage_density_continuous_at_kink(self):
        a = LAM + NU
        expected = (1.0 - math.exp(-a * R)) / R
        below = pdf_z_given_r3(np.nextafter(R, 0.0), LAM, NU, R)
        at = pdf_z_given_r3(R, LAM, NU, R)
        assert at == pytest.approx(expected, rel=1e-12)
        assert below == pytest.approx(at, rel=1e-9)

    def test_outage_density_takes_the_branch_past_r_at_r(self):
        # z < r picks the branch; at this point the two differ at z = r
        lam, nu, r = 0.9, 0.001, 5.0
        a = lam + nu
        past = np.exp(-a * r) * np.expm1(a * r) / r
        assert past != -np.expm1(-a * r) / r
        assert pdf_z_given_r3(r, lam, nu, r) == past
        assert pdf_z_given_r3([r, r], lam, nu, r).tolist() == [past, past]

    def test_outage_density_normalizes(self):
        head, _ = quad(lambda z: pdf_z_given_r3(z, LAM, NU, R), 0, R)
        tail, _ = quad(lambda z: pdf_z_given_r3(z, LAM, NU, R), R, np.inf)
        assert abs(head + tail - 1.0) < 1e-9

    def test_densities_nonnegative(self):
        z = np.linspace(0.0, 200.0, 5001)
        assert np.all(pdf_z_given_r2(z, LAM, NU) >= 0)
        assert np.all(pdf_z_given_r3(z, LAM, NU, R) >= 0)

    def test_outage_density_past_r_refuses_an_overflowing_rate(self):
        # (lam + nu) * r = 1000.2: exp(-a z) * expm1(a r) would be 0 * inf
        with pytest.raises(ParameterError, match=re.escape("(lam + nu) * r = 1000.2")):
            pdf_z_given_r3([1.0, 25.0], 50.0, 0.01, 20.0)
        # below r the density never evaluates the overflowing branch
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert pdf_z_given_r3(5.0, 50.0, 0.01, 20.0) == 0.05

    def test_invalid_arguments(self):
        with pytest.raises(ParameterError):
            pdf_z_given_r2(-1.0, LAM, NU)
        with pytest.raises(ParameterError):
            pdf_z_given_r3(1.0, LAM, NU, 0.0)


class TestLikelihoodRatioGeometry:
    def test_threshold_is_weighted_density_crossing(self):
        # below the kink, the prior-weighted densities cross exactly at tau
        prior_ratio = R * NU  # failed over working

        def diff(z):
            return pdf_z_given_r2(z, LAM, NU) - prior_ratio * pdf_z_given_r3(z, LAM, NU, R)

        root = brentq(diff, 1e-9, R - 1e-9, xtol=1e-12)
        assert abs(root - map_threshold(LAM, NU)) < 1e-9

    @pytest.mark.parametrize("lam,nu,r", [(0.5, 0.005, 20.0), (0.2, 0.01, 50.0), (0.9, 0.05, 5.0)])
    def test_beyond_kink_sign_is_constant_and_matches_tau_vs_r(self, lam, nu, r):
        tau = map_threshold(lam, nu)
        z = np.linspace(r, r + 300.0, 400)
        diff = pdf_z_given_r2(z, lam, nu) - r * nu * pdf_z_given_r3(z, lam, nu, r)
        signs = np.sign(diff)
        assert np.all(signs == signs[0])
        assert signs[0] == math.copysign(1.0, tau - r)


class TestErrorRateClosedForm:
    def test_standard_configuration(self):
        value = error_rate_closed_form(LAM, NU, R)
        assert value == pytest.approx(0.04163, abs=1e-4)
        assert value == pytest.approx(ERROR_RATE_DEFAULT, rel=1e-14)

    def test_decreasing_in_recovery_duration(self):
        values = [error_rate_closed_form(LAM, NU, r) for r in (10.0, 20.0, 40.0, 80.0, 160.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_decreasing_in_utilization(self):
        assert error_rate_closed_form(0.8, NU, R) < error_rate_closed_form(0.2, NU, R)

    def test_strictly_decreasing_over_lambda_grid(self):
        values = [error_rate_closed_form(lam, NU, R) for lam in np.arange(0.1, 0.95, 0.1)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_degenerate_returns_prior(self):
        # tau(0.5, 0.005) = 9.16 > r = 5 -> always-working policy
        assert map_threshold(LAM, NU) > 5.0
        assert error_rate_closed_form(LAM, NU, 5.0) == failure_prior(NU, 5.0)


class TestErrorRate:
    """`error_rate` at any threshold; tests/test_oracle.py checks its values
    against the quadrature of the gap-age densities."""

    @settings(max_examples=100, deadline=None)
    @given(k=st.integers(-30, 30), lam=st.floats(1e-3, 10.0), nu=st.floats(1e-4, 1.0), r=st.floats(1e-2, 1e3),
           taus=st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1e4), st.just(math.inf)), max_size=6))
    def test_time_scale_holds_bit_for_bit(self, k, lam, nu, r, taus):
        # rates divided by c and times multiplied by c leave the error rate
        # unchanged; c = 2^k scales every operand, so every bit is kept
        c = 2.0**k
        taus = taus + [r, math.nextafter(r, math.inf)]
        scaled = error_rate(lam / c, nu / c, r * c, [tau * c for tau in taus])
        assert [float.hex(value) for value in scaled] == [float.hex(value) for value in error_rate(lam, nu, r, taus)]

    @pytest.mark.parametrize("lam,nu,r", [(LAM, NU, R), (50.0, 0.01, 20.0), (1e-3, 1e-4, 1e3)])
    def test_raises_no_floating_point_error(self, lam, nu, r):
        # exp(-a tau) underflows far past a tau = 745, and so does the tail's
        # product with it; at (lam + nu) r = 1000.2, expm1(a r) would overflow
        taus = [0.0, 1e-300, 0.5 * r, r, math.nextafter(r, math.inf), 2.0 * r, 1e6, 1e300, math.inf]
        with np.errstate(all="raise"):
            values = error_rate(lam, nu, r, taus)
        assert all(0.0 <= value <= 1.0 for value in values)


class TestAoiClosedForms:
    def test_mm1_half_utilization(self):
        assert aoi_mm1(0.5, 1.0) == pytest.approx(3.5, rel=1e-15)

    @pytest.mark.parametrize("c", [0.25, 2.0, 10.0])
    def test_mm1_scales_with_service_rate(self, c):
        assert aoi_mm1(0.3, c * 1.0) == pytest.approx(aoi_mm1(0.3, 1.0) / c, rel=1e-12)

    def test_mm1_domain(self):
        for rho in (0.0, 1.0, 1.5, -0.2):
            with pytest.raises(ParameterError):
                aoi_mm1(rho, 1.0)

    def test_mm1_optimal_utilization(self):
        res = minimize_scalar(lambda rho: aoi_mm1(rho, 1.0), bracket=(0.2, 0.5, 0.9), method="golden")
        assert res.x == pytest.approx(0.531, abs=0.005)

    def test_mean_aoi_standard_configuration(self):
        assert mean_aoi_closed_form(LAM, MU, NU, R) == pytest.approx(4.5045, abs=1e-3)
        assert mean_aoi_closed_form(LAM, MU, NU, R) == pytest.approx(MEAN_AOI_DEFAULT, rel=1e-14)

    def test_mean_aoi_failure_free_limit(self):
        limit = mean_aoi_closed_form(LAM, MU, 1e-12, R)
        assert limit == pytest.approx(aoi_mm1(0.5, 1.0), rel=1e-9)

    def test_mean_aoi_instant_recovery(self):
        assert mean_aoi_closed_form(LAM, MU, NU, 0.0) == pytest.approx(
            aoi_mm1(0.5, 1.0) + NU / MU**2, rel=1e-12
        )

    def test_region_means_standard_configuration(self):
        assert region_means_closed_form(LAM, MU, NU, R) == pytest.approx((24.0, 3.5, 13.5))

    def test_region_means_structure(self):
        r1, r2, r3 = region_means_closed_form(LAM, MU, NU, 0.0)
        assert r1 - r2 == pytest.approx(0.5 / MU)
        for r in (1.0, 20.0, 137.0):
            r1, r2, r3 = region_means_closed_form(LAM, MU, NU, r)
            assert r3 - r2 == pytest.approx(r / 2, rel=1e-12)


def analytic_row(lam, mu, nu, r):
    """The closed forms' row at one point, as `agemon analytic` builds it:
    the analytic-only `measure` row of the optimal threshold."""
    [row] = measure(SimParams(lam, mu, nu, r), with_sim=False)
    return row


class TestReport:
    def test_standard_configuration(self):
        report = analytic_row(LAM, MU, NU, R)
        assert report["tau"] == pytest.approx(9.16, abs=0.005)
        assert not report["degenerate"]
        assert report["err_analytic"] == pytest.approx(ERROR_RATE_DEFAULT, rel=1e-14)
        assert report["aoi_analytic"] == pytest.approx(MEAN_AOI_DEFAULT, rel=1e-14)
        assert 0.0 < report["prior_s1"] < 1.0
        assert report["prior_s1"] == pytest.approx(R * NU / (1 + R * NU), rel=1e-15)
        assert 0.0 < report["err_analytic"] < 1.0

    def test_analytic_keys_pinned(self):
        d = project(analytic_row(LAM, MU, NU, R), "analytic")
        assert d["aoi_mm1"] == 3.5
        assert list(d) == [
            "lam", "mu", "nu", "r", "tau", "degenerate",
            "error_rate", "aoi_mm1", "mean_aoi", "prior_s1",
        ]


def optimal_rule(lam, nu, r):
    """The optimal rule's threshold and whether it is degenerate, as
    `agemon analytic` publishes them."""
    report = analytic_row(lam, MU, nu, r)
    return report["tau"], report["degenerate"]


# analytic_row's and optimal_rule's cases keep the ids of the library calls
# they replaced, so ids stay stable. The densities keep their checks in
# tests/reference.py, where the quadrature's integrands are compared with them.
CASE_NAMES = {analytic_row: "analytic_report", optimal_rule: "DecisionRule.map_rule"}


@pytest.mark.parametrize("fn,fixed,fields,field,value", [
    pytest.param(fn, fixed, fields, field, value, id=f"{CASE_NAMES.get(fn, fn.__qualname__)}-{field}-{value}")
    for fn, fixed, fields in (
        (failure_prior, (), ("nu", "r")),
        (error_rate_closed_form, (), ("lam", "nu", "r")),
        (mean_aoi_closed_form, (), ("lam", "mu", "nu", "r")),
        (region_means_closed_form, (), ("lam", "mu", "nu", "r")),
        (analytic_row, (), ("lam", "mu", "nu", "r")),
        (pdf_z_given_r2, (1.0,), ("lam", "nu")),
        (pdf_z_given_r3, (1.0,), ("lam", "nu", "r")),
        (aoi_mm1, (0.5,), ("mu",)),
        (map_threshold, (), ("lam", "nu")),
        (optimal_rule, (), ("lam", "nu", "r")),
    )
    for field in fields
    for value in (math.inf, math.nan)
])
def test_non_finite_input_rejected(fn, fixed, fields, field, value):
    # fixed: the leading z or rho, which are not model parameters
    args = {name: STANDARD[name] for name in fields}
    with pytest.raises(ParameterError, match=f"{field} must be finite"):
        fn(*fixed, **{**args, field: value})
