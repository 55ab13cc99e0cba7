import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import agemon.analytics
import reference
from agemon import (
    ParameterError,
    SimParams,
    error_rate_closed_form,
    failure_prior,
    map_threshold,
    monte_carlo_cross_check,
)
from agemon.analytics import error_rate
from conftest import DEFAULTS, SEED
from reference import (
    OracleError,
    _outage_density,
    _working_density,
    pdf_z_given_r2,
    pdf_z_given_r3,
    quadrature_error_rate,
    quadrature_error_rates,
    scan_optimal_threshold,
)

LAM, NU, R = 0.5, 0.005, 20.0
TAU = map_threshold(LAM, NU)
# analytics.error_rate against the quadrature, relative, on every grid; and
# against error_rate_closed_form at the optimal threshold
QUADRATURE_RTOL = 1e-12
CLOSED_FORM_RTOL = 1e-15
# a grid value sums segment integrals where the one-point value takes one
# integral; the two agree to rounding, well inside _QUAD_ABSTOL
GRID_ATOL = 1e-13

# float.hex of quadrature_error_rate(lam, nu, r, tau), recorded while the
# integrands still called pdf_z_given_r2/pdf_z_given_r3 per abscissa: tau = 0,
# 0 < tau < r, the MAP threshold, tau = r, tau > r and a far tail, at the paper
# defaults and at two more points (the last one degenerate, tau_MAP > r)
GOLDEN = {
    (0.5, 0.005, 20.0): {
        0.0: "0x1.d1745d1745d19p-1",
        5.0: "0x1.654867aa9fe1cp-4",
        9.158362006503506: "0x1.55062b4924bbdp-5",
        20.0: "0x1.4fa6828b04efcp-4",
        30.0: "0x1.7420da2e58d21p-4",
        1e6: "0x1.745d1745d1746p-4",
    },
    (0.1, 0.05, 50.0): {
        0.0: "0x1.2492492492492p-2",
        12.5: "0x1.22501077b46cbp-3",
        9.241962407465936: "0x1.0e64b6cef6918p-3",
        50.0: "0x1.3d0f6d1dedce1p-1",
        75.0: "0x1.6c91eef8d3de1p-1",
        1e6: "0x1.6db6db6db6db7p-1",
    },
    (0.9, 0.001, 5.0): {
        0.0: "0x1.fd73e68701460p-1",
        1.25: "0x1.4ae2ead15d0a7p-2",
        7.552291365219339: "0x1.872a7188d0b76p-8",
        5.0: "0x1.e7a3adb321636p-7",
        7.5: "0x1.8a4e9fd179ef8p-8",
        1e6: "0x1.460cbc7f5cf9ap-8",
    },
}


@pytest.mark.parametrize("point", sorted(GOLDEN))
def test_quadrature_bit_identical_to_recorded(point):
    lam, nu, r = point
    got = {tau: float.hex(quadrature_error_rate(lam, nu, r, tau)) for tau in GOLDEN[point]}
    assert got == GOLDEN[point]


@pytest.mark.parametrize("lam,nu,r", sorted(GOLDEN))
def test_integrands_equal_public_densities(monkeypatch, lam, nu, r):
    # the oracle integrates closures over floats (_quad) and over arrays of
    # abscissae (_kronrod21); each must return exactly what the validating
    # public density returns at the same abscissa
    on_floats, on_arrays = [], []

    def record_quad(fn, lo, hi):
        on_floats.append(fn)
        return 0.0, 0.0

    def record_kronrod(density, lo, hi):
        on_arrays.append(density)
        return np.zeros_like(lo), np.zeros_like(lo), np.ones(lo.shape, dtype=bool)

    monkeypatch.setattr(reference, "_quad", record_quad)
    monkeypatch.setattr(reference, "_kronrod21", record_kronrod)
    # on floats: fp over [2r, inf), the outage over [r, inf) and [2r, inf);
    # on arrays: fp over [r/2, 2r], the outage over [0, r/2] and [0, r]
    quadrature_error_rates(lam, nu, r, [0.5 * r, 2.0 * r])
    assert len(on_floats) == len(on_arrays) == 3
    grid = [0.0, 1e-9, 0.5 * r, math.nextafter(r, 0.0), r, math.nextafter(r, math.inf), 3.0 * r, 1e4]
    zs = np.array(grid).reshape(2, 4)  # the kernel passes a (21, m) array
    for (working, *outage), evaluate in ((on_floats, lambda fn: [fn(z) for z in grid]),
                                         (on_arrays, lambda fn: fn(zs).ravel().tolist())):
        assert [float.hex(float(v)) for v in evaluate(working)] == [
            float.hex(pdf_z_given_r2(z, lam, nu)) for z in grid]
        for fn in outage:
            assert [float.hex(float(v)) for v in evaluate(fn)] == [
                float.hex(pdf_z_given_r3(z, lam, nu, r)) for z in grid]


@pytest.mark.parametrize("lam,nu,r", sorted(GOLDEN))
def test_grid_bit_identical_to_one_point(lam, nu, r):
    # a grid value is a sum of segment integrals, so only its last bits may
    # move; the [2r, 1e6] span loses its mass unless the fp chain restarts
    taus = [0.0, r / 4, map_threshold(lam, nu), r, math.nextafter(r, math.inf), 2.0 * r, 1e6, math.inf]
    got = quadrature_error_rates(lam, nu, r, taus)
    want = [quadrature_error_rate(lam, nu, r, tau) for tau in taus]
    assert max(abs(g - w) for g, w in zip(got, want)) <= GRID_ATOL


@settings(max_examples=30, deadline=None)
@given(point=st.sampled_from(sorted(GOLDEN)), data=st.data())
def test_grid_values_depend_only_on_the_set_of_thresholds(point, data):
    lam, nu, r = point
    special = st.sampled_from([0.0, r, math.nextafter(r, math.inf), math.inf, map_threshold(lam, nu)])
    near = st.floats(0.0, 3.0 * r)
    far = st.floats(0.0, 1e6)
    taus = data.draw(st.lists(st.one_of(special, near, far), min_size=1, max_size=8))
    shuffled = data.draw(st.permutations(taus + data.draw(st.lists(st.sampled_from(taus), max_size=4))))
    got = quadrature_error_rates(lam, nu, r, taus)
    for tau, value in zip(taus, got):
        assert abs(value - quadrature_error_rate(lam, nu, r, tau)) <= GRID_ATOL
    # the chains run over the sorted distinct thresholds, so order and
    # repeats cannot move a bit
    by_tau = {tau: float.hex(value) for tau, value in zip(taus, got)}
    again = quadrature_error_rates(lam, nu, r, shuffled)
    assert [float.hex(value) for value in again] == [by_tau[tau] for tau in shuffled]
    # the closed form is elementwise: each value has its one-point bits
    closed = error_rate(lam, nu, r, shuffled)
    assert [float.hex(value) for value in closed] == [
        float.hex(error_rate(lam, nu, r, [tau])[0]) for tau in shuffled]
    for value, tau in zip(closed, shuffled):
        assert value == pytest.approx(float.fromhex(by_tau[tau]), rel=QUADRATURE_RTOL, abs=0.0)


# the GOLDEN points, a long recovery, and (lam + nu) r = 500.1 and 700.14,
# the largest below ~709.78, past which the quadrature's outage density
# overflows exp beyond r
AGREEMENT_POINTS = sorted(GOLDEN) + [(1e-3, 1e-4, 1e3), (50.0, 0.01, 10.0), (50.0, 0.01, 14.0)]


@pytest.mark.parametrize("lam,nu,r", AGREEMENT_POINTS)
def test_error_rate_agrees_with_the_quadrature(lam, nu, r):
    # from 0 past r, r from both sides, the optimal threshold, a far tail and inf
    taus = np.linspace(0.0, 3.0 * r, 61).tolist() + [
        math.nextafter(r, 0.0), r, math.nextafter(r, math.inf), map_threshold(lam, nu), 1e6, math.inf]
    closed, quadrature = error_rate(lam, nu, r, taus), quadrature_error_rates(lam, nu, r, taus)
    for tau, got, want in zip(taus, closed, quadrature):
        assert got == pytest.approx(want, rel=QUADRATURE_RTOL, abs=0.0), tau
    # every working second is a false positive at 0, none is at inf
    assert closed[0] == 1.0 - failure_prior(nu, r) and closed[-1] == failure_prior(nu, r)


def test_thresholds_read_once_from_any_iterable():
    taus = [1.0, 5.0, 30.0]
    for rates in (quadrature_error_rates, error_rate):
        want = rates(LAM, NU, R, taus)
        assert len(want) == 3 and all(type(value) is float for value in want)
        for given_taus in ((tau for tau in taus), tuple(taus), np.array(taus)):
            assert rates(LAM, NU, R, given_taus) == want


def test_error_bound_sums_every_integral_a_value_adds(monkeypatch):
    real_quad, real_kronrod = reference._quad, reference._kronrod21
    loose = 0.4 * reference._QUAD_MAX_ERR

    def loose_quad(fn, lo, hi):
        return real_quad(fn, lo, hi)[0], loose

    def loose_kronrod(density, lo, hi):
        values, errs, stops = real_kronrod(density, lo, hi)
        return values, np.full_like(errs, loose), stops

    monkeypatch.setattr(reference, "_quad", loose_quad)
    monkeypatch.setattr(reference, "_kronrod21", loose_kronrod)
    # one point below r adds two integrals: fp to infinity and fn from 0
    quadrature_error_rate(LAM, NU, R, R / 2)
    # on the grid, r/4's fp adds the segment [r/4, r/2] to r/2's fp: three
    with pytest.raises(OracleError, match=re.escape(f"tau={R / 4}")):
        quadrature_error_rates(LAM, NU, R, [R / 4, R / 2])


@pytest.fixture
def integrals(monkeypatch):
    """(lo, hi, how) of every integral taken: "first step" for each segment
    whose _kronrod21 value is kept, "quad" for each _quad call."""
    taken = []
    real_quad, real_kronrod = reference._quad, reference._kronrod21

    def counted_quad(fn, lo, hi):
        taken.append((lo, hi, "quad"))
        return real_quad(fn, lo, hi)

    def counted_kronrod(density, lo, hi):
        values, errs, stops = real_kronrod(density, lo, hi)
        taken.extend((a, b, "first step") for a, b in zip(lo[stops].tolist(), hi[stops].tolist()))
        return values, errs, stops

    monkeypatch.setattr(reference, "_quad", counted_quad)
    monkeypatch.setattr(reference, "_kronrod21", counted_kronrod)
    return taken


@pytest.mark.parametrize("grid", [
    [0.0, 5.0, TAU, R],
    [30.0],
    [0.0, 5.0, R, math.nextafter(R, math.inf), 2.0 * R, 1e6, math.inf],
    list(np.arange(0.15, 39.9 + 0.125, 0.25)),
])
def test_grid_takes_tau_independent_integrals_once(integrals, grid):
    below = sum(0 < tau <= R for tau in grid)
    above = sum(tau > R for tau in grid)
    quadrature_error_rates(LAM, NU, R, grid)
    # one false-positive integral per threshold, one outage integral per
    # threshold in (0, r], one tail per threshold above r, and [0, r] and
    # [r, inf) once for the grid when some threshold lies above r
    assert len(integrals) == len(grid) + below + above + (2 if above else 0)


def test_scan_grid_integrates_only_to_infinity_adaptively(integrals):
    # the oracle-scan grid: its 319 finite segments stop after QUADPACK's
    # first step, and _quad takes only fp's, the tail's and [r, inf)
    quadrature_error_rates(LAM, NU, R, list(np.arange(0.15, 39.9 + 0.125, 0.25)))
    adaptive = sorted((lo, hi) for lo, hi, how in integrals if how == "quad")
    assert adaptive == [(R, math.inf), (39.9, math.inf), (39.9, math.inf)]
    assert sum(how == "first step" for *_, how in integrals) == 319


@pytest.mark.parametrize("bad", [math.nan, -1.0])
def test_grid_checks_every_threshold_before_integrating(integrals, monkeypatch, bad):
    with pytest.raises(ParameterError, match="tau must be >= 0"):
        quadrature_error_rates(LAM, NU, R, [0.0, 5.0, 30.0, bad])
    assert integrals == []

    # the closed form too checks the last threshold before any value
    def no_values(nu, r):
        raise AssertionError("computed a value before checking every threshold")

    monkeypatch.setattr(agemon.analytics, "failure_prior", no_values)
    with pytest.raises(ParameterError, match="tau must be >= 0"):
        error_rate(LAM, NU, R, [0.0, 5.0, 30.0, bad])


# the GOLDEN points and two with extreme lam + nu: 50.01 and 1.1e-3
KERNEL_POINTS = sorted(GOLDEN) + [(50.0, 0.01, 3.0), (1e-3, 1e-4, 1e3)]


def quadpack(density, lo, hi):
    from scipy import integrate

    return integrate.quad(density, lo, hi, epsabs=reference._QUAD_EPSABS,
                          epsrel=reference._QUAD_EPSREL, limit=300, full_output=1)


@pytest.mark.parametrize("lam,nu,r", KERNEL_POINTS)
@pytest.mark.parametrize("branch", ["working", "outage"])
def test_kronrod21_is_quadpacks_first_step(lam, nu, r, branch):
    a = lam + nu
    density = (lambda z: _working_density(z, a)) if branch == "working" else (lambda z: _outage_density(z, a, r))
    rng = np.random.default_rng(SEED)
    # starts up to 3r, where the outage density turns, and up to 3 decay
    # lengths, where most of the working density's mass lies
    lo = np.concatenate((rng.uniform(0.0, 3.0 * r, 75), rng.uniform(0.0, 3.0 / a, 75)))
    # log-uniform widths from 1e-6 to 40 decay lengths 1/a
    hi = lo + np.exp(rng.uniform(math.log(1e-6 / a), math.log(40.0 / a), lo.size))
    values, errs, stops = reference._kronrod21(density, lo, hi)
    one_step = []
    for i in range(lo.size):
        value, abserr, info = quadpack(density, float(lo[i]), float(hi[i]))[:3]
        one_step.append(info["neval"] == 21)
        if stops[i]:
            assert float.hex(float(values[i])) == float.hex(value)
            # numpy's ** and C's pow may differ in abserr's last bit
            assert errs[i] == pytest.approx(abserr, rel=1e-14, abs=0.0)
    assert stops.tolist() == one_step
    assert 0 < stops.sum() < stops.size  # both kinds of segment were drawn


def test_segment_beyond_one_step_goes_to_quad_with_its_bits(integrals):
    # 30 decay lengths: under the restart, too steep for one 21-point step
    wide = 1.0 + 30.0 / (LAM + NU)
    quadrature_error_rates(LAM, NU, R, [1.0, wide])
    assert (1.0, wide, "quad") in integrals and (1.0, wide, "first step") not in integrals
    density = lambda z: _working_density(z, LAM + NU)
    [value], _ = reference._integrals(density, [1.0], [wide])
    assert float.hex(value) == float.hex(quadpack(density, 1.0, wide)[0])


@pytest.mark.parametrize("lam,nu,r", KERNEL_POINTS)
def test_density_on_the_abscissae_equals_public_densities(monkeypatch, lam, nu, r):
    # the kernel's values are QUADPACK's only if its one evaluation on the
    # (21, m) abscissae gives each float the density's bits at that float
    evaluated = []
    real = reference._kronrod21

    def record(density, lo, hi):
        def recorded(z):
            evaluated.append((z, density(z)))
            return evaluated[-1][1]
        return real(recorded, lo, hi)

    monkeypatch.setattr(reference, "_kronrod21", record)
    # fp's segments; the outage's up to r, over [0, r], and above r
    quadrature_error_rates(lam, nu, r, np.linspace(0.0, 2.0 * r, 41))
    (z, f), *outage = evaluated
    assert z.shape == (21, 40) and len(outage) == 3
    hexes = lambda values: [float.hex(float(v)) for v in values]
    assert hexes(f.ravel()) == hexes(pdf_z_given_r2(x, lam, nu) for x in z.ravel())
    for z, f in outage:
        assert hexes(f.ravel()) == hexes(pdf_z_given_r3(x, lam, nu, r) for x in z.ravel())


def test_overflowing_outage_tail_fails_fast(integrals):
    # (lam + nu) * r = 1000.2: past r, exp(-a z) * expm1(a r) was 0 * inf,
    # and the oracle ended in "quadrature ... did not converge (abserr=nan)"
    with pytest.raises(ParameterError, match=re.escape("(lam + nu) * r = 1000.2")):
        quadrature_error_rates(50.0, 0.01, 20.0, [5.0, 30.0])
    assert integrals == []
    # the closed form's tail, exp(-a (tau - r)) (-expm1(-a r)) / (a r), stays
    # finite; 30 lies e^-500 past r, where the error rate is the prior
    assert error_rate(50.0, 0.01, 20.0, [30.0]) == [failure_prior(0.01, 20.0)]
    # thresholds at or below r never evaluate the density past r
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert [float.hex(quadrature_error_rate(50.0, 0.01, 20.0, tau)) for tau in (5.0, 20.0)] == [
            "0x1.53f7e0bd786a7p-5", "0x1.54fdf82f5e1abp-3"]


class TestQuadrature:
    def test_agrees_with_closed_form_at_map_threshold(self):
        closed = error_rate_closed_form(LAM, NU, R)
        assert abs(quadrature_error_rate(LAM, NU, R, TAU) - closed) < 1e-6
        assert error_rate(LAM, NU, R, [TAU])[0] == pytest.approx(closed, rel=CLOSED_FORM_RTOL, abs=0.0)

    def test_zero_threshold_always_declares_failure(self):
        # every working second is a false positive
        assert quadrature_error_rate(LAM, NU, R, 0.0) == pytest.approx(
            1.0 / (1.0 + R * NU), rel=1e-9
        )

    def test_huge_threshold_always_declares_working(self):
        assert quadrature_error_rate(LAM, NU, R, 1e6) == pytest.approx(
            failure_prior(NU, R), rel=1e-9
        )

    def test_threshold_beyond_kink(self):
        # integration across the outage-density kink at z = r stays accurate
        value = quadrature_error_rate(LAM, NU, R, 2.0 * R)
        assert 0.0 < value < 1.0
        below = quadrature_error_rate(LAM, NU, R, 0.99 * R)
        assert value > below  # past the optimum, error grows with tau

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            quadrature_error_rate(-1.0, NU, R, 1.0)
        with pytest.raises(ParameterError):
            quadrature_error_rate(LAM, NU, R, -0.5)

    @pytest.mark.parametrize("args,message", [
        ((LAM, NU, R, math.nan), "tau must be >= 0"),
        ((math.inf, NU, R, 5.0), "lam must be finite"),
        ((math.nan, NU, R, 5.0), "lam must be finite"),
        ((LAM, math.inf, R, 5.0), "nu must be finite"),
        ((LAM, NU, math.inf, 5.0), "r must be finite"),
        ((LAM, NU, math.nan, 5.0), "r must be finite"),
        ((0.0, NU, R, 5.0), "lam must be > 0"),
        # the order of the checks: the rates, then the thresholds, then r > 0
        ((math.nan, NU, R, -1.0), "lam must be finite"),
        ((LAM, NU, 0.0, -1.0), "tau must be >= 0"),
        ((LAM, NU, 0.0, 5.0), "r must be > 0"),
        ((LAM, NU, -1.0, 5.0), "r must be >= 0"),
    ])
    def test_non_finite_input_rejected_before_integrating(self, args, message):
        # used to end in "quadrature ... did not converge (abserr=nan)"; the
        # closed form makes the same checks in the same order
        *point, tau = args
        messages = []
        for rates in (quadrature_error_rates, error_rate):
            with pytest.raises(ParameterError, match=message) as raised:
                rates(*point, [tau])
            messages.append(str(raised.value))
        assert messages[0] == messages[1]

    def test_infinite_threshold_is_the_failure_prior(self):
        assert quadrature_error_rate(LAM, NU, R, math.inf) == pytest.approx(failure_prior(NU, R), rel=1e-12)

    def test_agreement_grid_subset(self):
        # the full 75-cell grid runs in the acceptance suite
        for lam in (0.1, 0.9):
            for nu in (0.001, 0.05):
                for r in (20.0, 50.0):
                    if map_threshold(lam, nu) < r:
                        assert abs(
                            quadrature_error_rate(lam, nu, r, map_threshold(lam, nu))
                            - error_rate_closed_form(lam, nu, r)
                        ) < 1e-6


class TestScan:
    def test_singleton_grid(self):
        assert scan_optimal_threshold(LAM, NU, R, [TAU]) == TAU

    def test_three_point_monotonicity_around_map(self):
        e_map = quadrature_error_rate(LAM, NU, R, TAU)
        assert e_map <= quadrature_error_rate(LAM, NU, R, TAU - 2.0)
        assert e_map <= quadrature_error_rate(LAM, NU, R, TAU + 2.0)

    def test_coarse_scan_brackets_map(self):
        grid = np.arange(0.0, 2 * R + 0.25, 0.5)
        best = scan_optimal_threshold(LAM, NU, R, grid)
        assert abs(best - TAU) <= 0.25

    def test_grid_containing_tau_returns_it(self):
        grid = np.concatenate((np.arange(0.0, 2 * R, 1.0), [TAU]))
        assert scan_optimal_threshold(LAM, NU, R, grid) == TAU

    def test_map_beats_every_grid_point(self):
        e_map = quadrature_error_rate(LAM, NU, R, TAU)
        for t in np.arange(0.0, 2 * R, 0.8):
            assert e_map <= quadrature_error_rate(LAM, NU, R, float(t)) + 1e-12

    def test_empty_grid(self):
        with pytest.raises(ParameterError):
            scan_optimal_threshold(LAM, NU, R, [])

    def test_nan_grid_point(self):
        with pytest.raises(ParameterError, match="tau must be >= 0"):
            scan_optimal_threshold(LAM, NU, R, [1.0, math.nan, 9.0])


class TestCrossCheck:
    def test_requires_enough_periods(self):
        with pytest.raises(ParameterError):
            monte_carlo_cross_check(SimParams(**DEFAULTS, periods=100, master_seed=1))

    def test_smoke_at_ten_thousand_periods(self):
        report = monte_carlo_cross_check(
            SimParams(**DEFAULTS, periods=10_000, master_seed=SEED)
        )
        assert report["tau"] == pytest.approx(TAU)
        assert not report["degenerate"]
        assert abs(report["aoi_rel_dev"]) < 0.05
        assert abs(report["err_rel_dev"]) < 0.10
        # the full-span rate exceeds the detection-scope one
        assert report["err_empirical"] > report["err_detection"]
        assert report["aoi_ci"] > 0
        assert report["err_ci"] > 0
        assert report["err_detection_ci"] > 0
        assert report["seed"] == SEED and report["periods"] == 10_000

    def test_custom_rule_fails_before_simulating(self, monkeypatch):
        # a rule's error rate checks its threshold before anything is simulated
        def no_simulation(params, taus):
            raise AssertionError("simulated before the rule's error rate")

        # the simulation that monte_carlo_cross_check reaches, wherever it lives
        monkeypatch.setitem(monte_carlo_cross_check.__globals__, "simulate_table", no_simulation)
        params = SimParams(**{**DEFAULTS, "r": 1500.0}, periods=10_000, master_seed=SEED)
        with pytest.raises(ParameterError, match="tau must be >= 0"):
            monte_carlo_cross_check(params, tau=math.nan, confidence=None)
        # (lam + nu) * r = 757.5 once failed here too, because the quadrature's
        # outage density past r overflowed exp; the closed form does not
        with pytest.raises(AssertionError, match="simulated before"):
            monte_carlo_cross_check(params, tau=2000.0, confidence=None)

    def test_custom_rule_uses_quadrature_reference(self):
        report = monte_carlo_cross_check(
            SimParams(**DEFAULTS, periods=10_000, master_seed=SEED), tau=4.0, confidence=None
        )
        assert report["err_analytic"] == error_rate(LAM, NU, R, [4.0])[0]
        assert report["err_analytic"] == pytest.approx(quadrature_error_rate(LAM, NU, R, 4.0),
                                                       rel=QUADRATURE_RTOL, abs=0.0)
        # suboptimal threshold must measure worse than the optimal one
        best = monte_carlo_cross_check(
            SimParams(**DEFAULTS, periods=10_000, master_seed=SEED), confidence=None
        )
        assert report["err_detection"] > best["err_detection"]
