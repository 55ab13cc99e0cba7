from dataclasses import replace

import numpy as np
import pytest

import agemon.experiments
from agemon import (
    ParameterError,
    SimParams,
    SweepSpec,
    error_rate_closed_form,
    map_threshold,
    monte_carlo_cross_check,
    run_sweep,
    summarize,
)
from agemon.analytics import error_rate
from agemon.experiments import MAX_GRID_POINTS, measure
from agemon.summary import simulate_table
from conftest import DEFAULTS, SEED
from reference import quadrature_error_rates

# float.hex of (aoi_ci, err_detection_ci, err_ci) per row of a threshold
# sweep at 300 periods, grid 0, tau*/2, ..., 5 tau*/2 with tau* the MAP
# threshold (row 2). The last row's threshold exceeds r = 20 but is not the
# optimal one, so it is scored as "FAILED while z > tau", the rule whose
# error rate analytics.error_rate gives; its error half-widths were re-recorded when that
# replaced scoring it as "always WORKING" (old entry: the failed-time
# column's 0x1.61e1c7078acc4p-7 twice).
# The bootstrap half-widths these replaced were recorded when the stream
# contract changed to per-block streams, again when per-period sums replaced
# run-wide prefix-sum differences and then when the bootstrap's stream key
# moved (contract 3); the regenerative ratio half-widths were recorded when
# they replaced the bootstrap. Every later change must reproduce them
SWEEP_GOLDEN = [
    ("0x1.0b60373870690p-3", "0x1.74485594a04eep-7", "0x1.61e1c7078acc6p-7"),
    ("0x1.0b60373870690p-3", "0x1.e0b9317ef0912p-9", "0x1.f12c99fd37f2dp-9"),
    ("0x1.0b60373870690p-3", "0x1.0606b7126c0b5p-8", "0x1.2928ee9f4e090p-8"),
    ("0x1.0b60373870690p-3", "0x1.a17bf521d7d51p-8", "0x1.c6a6257068017p-8"),
    ("0x1.0b60373870690p-3", "0x1.201cea10dcfaap-7", "0x1.32a17f5281cf4p-7"),
    ("0x1.0b60373870690p-3", "0x1.5677fb34d20cap-7", "0x1.5dcfdde650bafp-7"),
]


def fixed(periods=200, seed=11):
    return SimParams(**DEFAULTS, periods=periods, master_seed=seed)


class TestSweepSpec:
    @pytest.mark.parametrize("kwargs", [
        dict(variable="nope", start=0.1, stop=0.9, step=0.1),
        dict(variable="rho", start=0.5, stop=0.2, step=0.1),
        dict(variable="rho", start=0.1, stop=0.9, step=0.0),
        dict(variable="rho", start=0.0, stop=0.9, step=0.1),
        dict(variable="rho", start=0.1, stop=1.0, step=0.1),
        dict(variable="expected_T", start=0.0, stop=10.0, step=1.0),
        dict(variable="threshold", start=-1.0, stop=10.0, step=1.0),
        # too many points: rejected before the grid is allocated
        dict(variable="threshold", start=0.0, stop=1e300, step=1e-300),
        dict(variable="threshold", start=0.0, stop=float(MAX_GRID_POINTS), step=1.0),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ParameterError):
            SweepSpec(fixed=fixed(), **kwargs)

    def test_grid_at_the_point_cap(self):
        spec = SweepSpec(variable="threshold", start=0.0, stop=MAX_GRID_POINTS - 1.0, step=1.0, fixed=fixed())
        assert spec.grid().size == MAX_GRID_POINTS

    def test_grid_is_inclusive(self):
        spec = SweepSpec(variable="rho", start=0.05, stop=0.95, step=0.05, fixed=fixed())
        grid = spec.grid()
        assert grid.size == 19
        assert grid[0] == pytest.approx(0.05)
        assert grid[-1] == pytest.approx(0.95)
        assert np.allclose(np.diff(grid), 0.05)


class TestRunSweep:
    def test_analytic_only_rows(self):
        spec = SweepSpec(variable="rho", start=0.2, stop=0.8, step=0.2, fixed=fixed())
        rows = run_sweep(spec, with_sim=False)
        assert len(rows) == 4
        assert all(r["aoi_empirical"] is None and r["seed"] is None for r in rows)
        assert all(r["err_analytic"] is not None for r in rows)

    def test_rho_sweep_rows_record_seed(self):
        spec = SweepSpec(variable="rho", start=0.3, stop=0.7, step=0.2, fixed=fixed())
        rows = run_sweep(spec)
        assert [r["swept_value"] for r in rows] == pytest.approx([0.3, 0.5, 0.7])
        assert all(r["seed"] == 11 for r in rows)
        assert all(r["aoi_ci"] > 0 and r["err_detection_ci"] > 0 for r in rows)
        assert all(r["fp_rate"] is not None and r["fn_rate"] is not None for r in rows)

    def test_threshold_sweep_shares_one_timeline(self):
        spec = SweepSpec(variable="threshold", start=2.0, stop=12.0, step=5.0, fixed=fixed())
        rows = run_sweep(spec)
        assert len({r["aoi_empirical"] for r in rows}) == 1
        assert len({r["err_empirical"] for r in rows}) == 3

    def test_expected_t_maps_to_failure_rate(self):
        spec = SweepSpec(variable="expected_T", start=100.0, stop=200.0, step=100.0, fixed=fixed())
        rows = run_sweep(spec, with_sim=False)
        # E[T] = 200 is the standard configuration
        assert rows[1]["aoi_analytic"] == pytest.approx(4.504545454545454, rel=1e-12)

    def test_rerun_reproduces_empirical_columns(self):
        spec = SweepSpec(variable="rho", start=0.4, stop=0.6, step=0.2, fixed=fixed())
        a = run_sweep(spec)
        b = run_sweep(spec)
        assert a == b


class TestMeasure:
    def test_closed_form_at_the_optimal_threshold_quadrature_elsewhere(self):
        # err_analytic is error_rate_closed_form at the optimal threshold and
        # error_rate, which the quadrature checks, at any other
        lam, nu, r = DEFAULTS["lam"], DEFAULTS["nu"], DEFAULTS["r"]
        optimal = map_threshold(lam, nu)
        grid = [4.0, optimal, 30.0]
        rows = measure(fixed(), grid, with_sim=False)
        assert rows[1]["err_analytic"] == error_rate_closed_form(lam, nu, r)
        assert [rows[0]["err_analytic"], rows[2]["err_analytic"]] == error_rate(lam, nu, r, [4.0, 30.0])
        for row, want in zip(rows, quadrature_error_rates(lam, nu, r, grid)):
            assert row["err_analytic"] == pytest.approx(want, rel=1e-12, abs=0.0)
        [row] = measure(fixed(), with_sim=False)
        assert row["err_analytic"] == error_rate_closed_form(lam, nu, r)

    def test_simulation_is_reached_through_simulate_table(self, monkeypatch):
        # The tests that stub the simulation out patch this name
        # (test_cli's, test_oracle's and the one below); if measure reached
        # the simulation another way, those stubs would check nothing.
        calls = []
        monkeypatch.setattr(agemon.experiments, "simulate_table",
                            lambda params, taus: calls.append(params) or simulate_table(params, taus))
        params = fixed()
        rows = measure(params, [1.0, 2.0])
        assert calls == [params]
        assert [row["aoi_empirical"] for row in rows] == [simulate_table(params, ()).aoi] * 2

    def test_analytic_only_rows_build_no_rule(self, monkeypatch):
        # nothing is scored: neither a period table nor a summary is built
        monkeypatch.setattr(agemon.experiments, "simulate_table", None)
        monkeypatch.setattr(agemon.experiments, "summarize", None)
        rows = measure(fixed(), [1.0, 2.0, 30.0], with_sim=False, swept_var="threshold")
        assert [row["swept_var"] for row in rows] == ["threshold"] * 3
        assert [row["tau"] for row in rows] == [1.0, 2.0, 30.0]
        assert all(row["aoi_empirical"] is None for row in rows)

    def test_no_thresholds_fail_before_anything_is_computed(self, monkeypatch):
        # an empty taus once ran a whole simulation to return no row, and
        # failed at a one-period run for want of a half-width nobody asked for
        def reached(*args):
            raise AssertionError("computed something for no threshold")

        monkeypatch.setattr(agemon.experiments, "mean_aoi_closed_form", reached)
        monkeypatch.setattr(agemon.experiments, "simulate_table", reached)
        for taus, with_sim in (([], True), (iter(()), True), ((), False)):
            with pytest.raises(ParameterError, match="^taus must hold at least one threshold"):
                measure(replace(fixed(), periods=1), taus, with_sim)
        # the table itself still takes no threshold
        assert simulate_table(fixed(), []).hinges.shape == (0, fixed().periods)

    def test_analytic_only_rows_refuse_conditioning(self, monkeypatch):
        # the closed forms describe unconditioned runs; nothing is computed
        monkeypatch.setattr(agemon.experiments, "mean_aoi_closed_form", None)
        conditioned = SimParams(**DEFAULTS, periods=10, master_seed=SEED, require_delivery=True)
        for call in (lambda: measure(conditioned, with_sim=False),
                     lambda: run_sweep(SweepSpec("rho", 0.2, 0.8, 0.2, conditioned), with_sim=False)):
            with pytest.raises(ParameterError, match="closed forms describe unconditioned runs"):
                call()

    def test_unknown_summary_column_rejected(self, monkeypatch):
        # a summary column outside report.COLUMNS fails as run_row's would
        summarize = agemon.experiments.summarize
        monkeypatch.setattr(agemon.experiments, "summarize",
                            lambda *args, **kwargs: [dict(s, err_anlytic=0.0) for s in summarize(*args, **kwargs)])
        with pytest.raises(ParameterError, match=r"unknown columns \['err_anlytic'\]"):
            measure(fixed())

    def test_a_positional_level_is_refused(self, monkeypatch):
        # the half-widths are always 95% ones and take no argument: a level
        # passed where it once went fails at the call, before anything is
        # simulated
        monkeypatch.setattr(agemon.experiments, "simulate_table", None)
        spec = SweepSpec("threshold", 1.0, 2.0, 1.0, fixed())
        for call in (lambda: measure(fixed(), None, True, 0.99), lambda: run_sweep(spec, True, 0.95),
                     lambda: monte_carlo_cross_check(replace(fixed(), periods=10_000), 0.95),
                     lambda: summarize(simulate_table(fixed(), [4.0]), 0.99)):
            with pytest.raises(TypeError, match="positional argument"):
                call()

    def test_a_run_out_of_float_range_is_refused(self):
        # its r3 age areas, about r^2 / 2, pass float64; measure once
        # returned inf and nan
        params = replace(fixed(seed=SEED), r=1e155)
        with pytest.raises(ParameterError, match=r"^aoi_empirical, aoi_ci left the float64 range"):
            measure(params)
        [row] = measure(replace(params, r=1e76))
        assert np.isfinite([row["aoi_empirical"], row["aoi_ci"], row["err_ci"]]).all()

    def test_simulated_rows_record_their_rule(self):
        rows = measure(fixed(), [4.0, 25.0])
        # 25 >= r is not the optimal threshold, so its rule is not degenerate:
        # it is scored as "FAILED while z > 25", like its err_analytic (this
        # pair read (25.0, True) when any tau >= r was scored as always WORKING)
        assert [(row["tau"], row["degenerate"]) for row in rows] == [(4.0, False), (25.0, False)]
        # one simulation serves both rules
        assert rows[0]["aoi_empirical"] == rows[1]["aoi_empirical"]


class TestScoringScope:
    """A swept threshold is scored as the rule whose error rate
    `analytics.error_rate` gives, "FAILED while z > tau", whether or not it exceeds r; only the optimal
    threshold at tau >= r is the degenerate "always WORKING" rule, whose
    closed form is the failed-time prior."""

    PERIODS = 20_000

    def test_every_threshold_agrees_with_its_quadrature(self):
        # tau = 20 once read 0.09157 against 0.08195 +- 0.00115 (8.4
        # half-widths) when every tau >= r was scored as always WORKING
        params = SimParams(**DEFAULTS, periods=self.PERIODS, master_seed=SEED)
        optimal = map_threshold(params.lam, params.nu)
        rows = measure(params, [optimal, 15.0, 19.99, 20.0, 21.0, 25.0, 1000.0])
        assert not any(row["degenerate"] for row in rows)
        for row in rows:
            gap = abs(row["err_detection"] - row["err_analytic"])
            assert gap <= 3 * row["err_detection_ci"], (row["tau"], gap / row["err_detection_ci"])

    def test_only_the_optimal_threshold_at_or_above_r_is_degenerate(self):
        # at r = 5 the optimal threshold (~9.16) collapses to always WORKING;
        # tau = 10 once read 0.02458 against 0.02993 +- 0.00033 (16 half-widths)
        params = SimParams(**{**DEFAULTS, "r": 5.0}, periods=self.PERIODS, master_seed=SEED)
        optimal, swept = measure(params, [map_threshold(params.lam, params.nu), 10.0])
        assert optimal["degenerate"] and not swept["degenerate"]
        assert optimal["err_empirical"] == optimal["time_r3"] / optimal["measured_time"]
        assert optimal["fp_rate"] == 0.0
        assert abs(swept["err_detection"] - swept["err_analytic"]) <= 3 * swept["err_detection_ci"]


def sweep_params():
    step = map_threshold(DEFAULTS["lam"], DEFAULTS["nu"]) / 2
    return SimParams(**DEFAULTS, periods=300, master_seed=SEED), step


def halfwidths(rows):
    return [(float.hex(r["aoi_ci"]), float.hex(r["err_detection_ci"]), float.hex(r["err_ci"])) for r in rows]


def test_threshold_sweep_bit_identical_to_recorded():
    params, step = sweep_params()
    spec = SweepSpec(variable="threshold", start=0.0, stop=5 * step, step=step, fixed=params)
    rows = run_sweep(spec)
    assert rows[2]["swept_value"] == 2 * step
    assert rows[-1]["swept_value"] > DEFAULTS["r"]
    assert halfwidths(rows) == SWEEP_GOLDEN


# The name is kept from when the library stacked up to 32 rules in one
# bootstrap pass: the grid measured in passes of `per_pass` thresholds,
# each on its own simulation of the same seed, gives the same half-widths
@pytest.mark.parametrize("per_pass", [1, 3])
def test_threshold_sweep_over_several_bootstrap_passes(per_pass):
    params, step = sweep_params()
    grid = [step * k for k in range(6)]
    rows = [row for i in range(0, len(grid), per_pass) for row in measure(params, grid[i:i + per_pass])]
    assert halfwidths(rows) == SWEEP_GOLDEN


# (lam, mu, nu, r) and periods: the defaults, the dense regime (~1800
# packets per period) and a sparse one whose optimal rule is degenerate
TIME_SCALE_CONFIGS = [
    pytest.param((0.5, 1.0, 0.005, 20.0), 3000, id="defaults"),
    pytest.param((0.9, 1.0, 0.0005, 20.0), 300, id="dense"),
    pytest.param((0.05, 1.0, 0.01, 3.0), 3000, id="sparse"),
]
# the closed forms' columns, which analytic-only rows hold as well
SCALED_CLOSED_FORMS = ("tau", "aoi_mm1", "aoi_analytic")
INVARIANT_CLOSED_FORMS = ("degenerate", "prior_s1", "err_analytic")
SCALED_COLUMNS = ("measured_time", "aoi_empirical", "aoi_ci", "avg_r1", "avg_r2", "avg_r3",
                  "time_r1", "time_r2", "time_r3", "reacquisition_fp_time", *SCALED_CLOSED_FORMS)
INVARIANT_COLUMNS = ("err_empirical", "err_detection", "err_ci", "err_detection_ci", "fp_rate", "fn_rate",
                     *INVARIANT_CLOSED_FORMS)


def assert_time_scaled(scaled_rows, rows, c, scaled_columns, invariant_columns):
    for got, want in zip(scaled_rows, rows, strict=True):
        assert [float.hex(got[k]) for k in scaled_columns] == [float.hex(c * want[k]) for k in scaled_columns], c
        assert [got[k] for k in invariant_columns] == [want[k] for k in invariant_columns], c


@pytest.mark.parametrize("require_delivery", [False, True])
@pytest.mark.parametrize("config,periods", TIME_SCALE_CONFIGS)
def test_time_scale_relation(config, periods, require_delivery):
    # Dividing the rates and multiplying r and the thresholds by a power of
    # two c multiplies every time of the run by c bit for bit: each
    # exponential draw is a standard draw times its scale, and every later
    # step is a sum, difference, max, comparison or product. So the time
    # and age columns scale by c and the error rates keep their bits, in
    # simulated and in analytic-only rows
    lam, mu, nu, r = config
    taus = [map_threshold(lam, nu), r / 2]
    params = SimParams(*config, periods=periods, master_seed=SEED, require_delivery=require_delivery)
    # the closed forms describe unconditioned runs, so they are measured without the conditioning
    base, closed = measure(params, taus), measure(replace(params, require_delivery=False), taus, with_sim=False)
    for c in (2.0, 0.5, 1024.0, 2.0**-7):
        params = SimParams(lam / c, mu / c, nu / c, r * c, periods=periods, master_seed=SEED,
                           require_delivery=require_delivery)
        scaled_taus = [tau * c for tau in taus]
        assert_time_scaled(measure(params, scaled_taus), base, c, SCALED_COLUMNS, INVARIANT_COLUMNS)
        assert_time_scaled(measure(replace(params, require_delivery=False), scaled_taus, with_sim=False), closed, c,
                           SCALED_CLOSED_FORMS, INVARIANT_CLOSED_FORMS)
