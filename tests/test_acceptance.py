"""Acceptance suite: one test per release criterion, each printing a PASS
line with the measured numbers once its assertions hold (run with -s to see
them). The heavyweight fixtures are shared across criteria."""

import concurrent.futures
import math
import random
from unittest import mock

import numpy as np
import pytest
from scipy import optimize, stats

import agemon.sim as sim

from agemon import (
    SimParams,
    aoi_mm1,
    error_rate_closed_form,
    map_threshold,
    mean_aoi_closed_form,
    run_sweep,
    simulate_table,
    SweepSpec,
)
from agemon.analytics import error_rate
from conftest import (
    DEFAULTS,
    MAP_TAU,
    SEED,
    empirical_columns,
    manual_timeline,
    sawtooth_timeline,
    table_rows,
    tau_columns,
)
from reference import (
    block_count,
    block_traces,
    bootstrap_halfwidths,
    lay_end_to_end,
    period_table,
    quadrature_error_rate,
    quadrature_error_rates,
    scan_optimal_threshold,
    simulate,
)

LAM, MU, NU, R = DEFAULTS["lam"], DEFAULTS["mu"], DEFAULTS["nu"], DEFAULTS["r"]
TAU = map_threshold(LAM, NU)
# the thresholds scored on the pinned 10^5-period run: the optimal one, the
# integer grid 1..20 and the coarse comparison rules
SWEEP = [float(t) for t in range(1, 21)]
RIVALS = [factor * TAU for factor in (0.25, 0.5, 2.0, 4.0)]
ERROR_RATE_CF = 0.041628918211379574
MEAN_AOI_CF = 4.504545454545454


def note(line: str) -> None:
    print(f"ACCEPTANCE {line}")


@pytest.fixture(scope="module")
def timeline_100k():
    """10^5 periods at the standard configuration, pinned seed."""
    return simulate(SimParams(**DEFAULTS, periods=100_000, master_seed=SEED))


@pytest.fixture(scope="module")
def table_100k(timeline_100k):
    return period_table(timeline_100k, [MAP_TAU, *SWEEP, *RIVALS])


@pytest.fixture(scope="module")
def error_default_rule(table_100k):
    return empirical_columns(table_100k, MAP_TAU)


def test_criterion_1_threshold_reproduction():
    tau = map_threshold(0.5, 0.005)
    assert tau == pytest.approx(9.16, abs=0.005)
    note(f"criterion 1 PASS: map_threshold(0.5, 0.005) = {tau:.6f} (9.16 +- 0.005)")


def test_criterion_2_oracle_formula_agreement():
    lams = (0.1, 0.3, 0.5, 0.7, 0.9)
    nus = tuple(np.geomspace(0.001, 0.05, 5))
    rs = (5.0, 20.0, 50.0)
    checked = 0
    worst = worst_grid = worst_optimal = 0.0
    for lam in lams:
        for nu in nus:
            for r in rs:
                # error_rate against the quadrature on thresholds from 0 past r
                tau = map_threshold(lam, nu)
                taus = np.linspace(0.0, 2.0 * r, 9).tolist() + [tau, math.inf]
                closed = error_rate(lam, nu, r, taus)
                for got, want in zip(closed, quadrature_error_rates(lam, nu, r, taus)):
                    worst_grid = max(worst_grid, abs(got / want - 1.0))
                    assert got == pytest.approx(want, rel=1e-12, abs=0.0), (lam, nu, r)
                if tau >= r:
                    continue
                formula = error_rate_closed_form(lam, nu, r)
                gap = abs(quadrature_error_rate(lam, nu, r, tau) - formula)
                worst = max(worst, gap)
                assert gap < 1e-6, (lam, nu, r, gap)
                worst_optimal = max(worst_optimal, abs(closed[-2] / formula - 1.0))
                assert closed[-2] == pytest.approx(formula, rel=1e-15, abs=0.0), (lam, nu, r)
                checked += 1
    assert checked >= 40  # most of the 75 cells are non-degenerate
    note(f"criterion 2 PASS: oracle vs formula on {checked} grid cells, worst gap {worst:.2e}; "
         f"error_rate vs oracle on 75 grids of 11 thresholds, worst relative gap {worst_grid:.2e}, "
         f"and vs the optimal-rule formula {worst_optimal:.2e}")


def test_criterion_3_threshold_optimality(table_100k, error_default_rule):
    # analytical scan at 0.02 resolution over [0, 2r]
    grid = np.round(np.arange(0.0, 2 * R + 0.01, 0.02), 10)
    best = scan_optimal_threshold(LAM, NU, R, grid)
    assert best == pytest.approx(9.16, abs=0.02)
    # empirical sweep on the pinned 10^5-period run, integer grid 1..20
    sweep = {t: row["err_empirical"] for t, row in zip(range(1, 21), table_rows(table_100k, SWEEP))}
    empirical_best = min(sweep, key=sweep.get)
    assert empirical_best == 9  # grid point nearest 9.16
    # the optimal threshold also beats the coarse comparison rules empirically
    e_map = error_default_rule["err_empirical"]
    for rival in table_rows(table_100k, RIVALS):
        assert e_map <= rival["err_empirical"]
    note(
        f"criterion 3 PASS: quadrature argmin {best:.2f} (9.16 +- 0.02), "
        f"empirical sweep argmin {empirical_best} (nearest 9.16), "
        f"optimal rule beats tau x {{1/4, 1/2, 2, 4}}"
    )


def test_criterion_4_aoi_closed_form_vs_monte_carlo(table_100k):
    aoi = table_100k.aoi
    rel = abs(aoi / MEAN_AOI_CF - 1.0)
    assert rel < 0.02
    # shorter working spans break the steady-state premise: deviation grows
    aoi_short = simulate_table(SimParams(lam=LAM, mu=MU, nu=0.05, r=R, periods=100_000, master_seed=SEED), ()).aoi
    rel_short = abs(aoi_short / mean_aoi_closed_form(LAM, MU, 0.05, R) - 1.0)
    assert rel_short > rel
    note(
        f"criterion 4 PASS: AoI {aoi:.4f} vs {MEAN_AOI_CF:.4f} ({100 * rel:.2f}% < 2%); "
        f"at E[T]=20 the deviation {100 * rel_short:.2f}% is larger"
    )


def test_criterion_5_error_rate_closed_form_vs_monte_carlo(error_default_rule):
    # the closed form scores the reacquisition span as ordinary working time,
    # so it is compared against the detection-scope rate
    detection = error_default_rule["err_detection"]
    rel = abs(detection / ERROR_RATE_CF - 1.0)
    assert rel < 0.05
    # the full-span rate carries one structural false positive of about 1/mu
    # per period on top; check that prediction too
    full_predicted = ERROR_RATE_CF + (1.0 / MU) / (1.0 / NU + R)
    assert error_default_rule["err_empirical"] == pytest.approx(full_predicted, rel=0.02)
    note(
        f"criterion 5 PASS: detection-scope error {detection:.5f} vs {ERROR_RATE_CF:.5f} "
        f"({100 * rel:.2f}% < 5%); full-span {error_default_rule['err_empirical']:.5f} matches "
        f"closed form + reacquisition term {full_predicted:.5f} within 2%"
    )


def test_criterion_6_tradeoff_reproduction():
    spec = SweepSpec(
        variable="rho", start=0.05, stop=0.95, step=0.05,
        fixed=SimParams(**DEFAULTS, periods=10_000, master_seed=SEED),
    )
    rows = run_sweep(spec)
    assert len(rows) == 19
    # the M/M/1 age-minimising utilization; the outage penalty does not
    # depend on lam, so it also minimises the failure-adjusted age
    rho_star = optimize.minimize_scalar(
        lambda rho: aoi_mm1(rho, MU), bounds=(0.05, 0.95), method="bounded", options={"xatol": 1e-10}
    ).x
    assert rho_star == pytest.approx(0.531010056459569, abs=1e-6)
    target = min((row["swept_value"] for row in rows), key=lambda rho: abs(rho - rho_star))
    aois = np.array([row["aoi_empirical"] for row in rows])
    best_rho = rows[int(np.argmin(aois))]["swept_value"]
    assert best_rho == pytest.approx(target)
    # strict decrease applies where the rule is non-degenerate (tau < r);
    # below that the optimal policy is constant and so is its error
    prior = R * NU / (1.0 + R * NU)
    live = [row for row in rows if map_threshold(row["swept_value"] * MU, NU) < R]
    degenerate = [row for row in rows if row not in live]
    assert all(row["err_analytic"] == pytest.approx(prior, rel=1e-12) for row in degenerate)
    for column in ("err_analytic", "err_empirical"):
        values = [row[column] for row in live]
        assert all(a > b for a, b in zip(values, values[1:])), column
    note(
        f"criterion 6 PASS: empirical AoI minimized at rho={best_rho:.2f} "
        f"(grid point nearest rho* = {rho_star:.6f}); "
        f"error strictly decreasing over the {len(live)} non-degenerate grid points "
        f"(first {len(degenerate)} points sit in the degenerate-rule plateau)"
    )


def test_criterion_7_region_structure(table_100k):
    regions = empirical_columns(table_100k, MAP_TAU)
    gap_32 = regions["avg_r3"] - regions["avg_r2"]
    gap_12 = regions["avg_r1"] - regions["avg_r2"]
    assert gap_32 == pytest.approx(R / 2, rel=0.05)
    assert gap_12 == pytest.approx(R + 0.5 / MU, rel=0.05)
    note(
        f"criterion 7 PASS: avg_r3 - avg_r2 = {gap_32:.3f} (r/2 = {R / 2} +- 5%), "
        f"avg_r1 - avg_r2 = {gap_12:.3f} (r + 1/(2 mu) = {R + 0.5 / MU} +- 5%)"
    )


def test_criterion_8_exactness_properties():
    # (a) the production Lindley kernel == event-driven queue on shared
    # draws, exactly
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(1, 80))
        d = np.cumsum(rng.exponential(2.0, size=n))
        s = rng.exponential(1.0, size=n)
        direct = sim._lindley_lockstep(d, np.append(s, 0.0), np.array([n]))
        waiting, busy, out, i = [], None, [], 0
        pending = list(zip(d.tolist(), s.tolist()))
        while i < len(pending) or waiting or busy is not None:
            nxt = pending[i][0] if i < len(pending) else None
            if busy is not None and (nxt is None or busy <= nxt):
                out.append(busy)
                busy = busy + waiting.pop(0) if waiting else None
            else:
                dep, svc = pending[i]
                i += 1
                if busy is None:
                    busy = dep + svc
                else:
                    waiting.append(svc)
        assert np.array_equal(direct, np.asarray(out))

    # (b) trapezoid additivity under segment splitting, bit-exact on dyadics
    times = [0.0, 1.0, 2.5, 4.0]
    ages = [0.5, 0.25, 1.0, 0.75]
    whole_timeline = sawtooth_timeline(times, ages, 8.0)
    split_timeline = sawtooth_timeline(times, ages, 8.0, cuts=[0.5, 1.5, 3.0, 6.0])
    whole, split = period_table(whole_timeline, ()), period_table(split_timeline, ())
    assert split_timeline.arrival_times.size == whole_timeline.arrival_times.size + 4
    assert np.array_equal(split.areas, whole.areas)
    assert split.aoi == whole.aoi

    # (c) degenerate rule (tau = inf, always WORKING): error == fraction of time failed, exactly
    tl = manual_timeline([
        (4.0, 2.0, [0.0, 1.0], [1.5, 3.0]),
        (3.0, 2.0, [0.0], [0.5]),
        (2.0, 2.0, [0.0], [1.0]),
    ])
    table = period_table(tl, [math.inf])
    row = empirical_columns(table, math.inf)
    _, false_negative_time, _ = tau_columns(table, math.inf).sum(axis=1).tolist()
    failed_time = sum(
        max(0.0, end - max(fail, tl.arrival_times[0]))
        for fail, end in zip(tl.failure_times, tl.recovery_ends)
    )
    assert row["err_empirical"] == failed_time / row["measured_time"]
    assert false_negative_time == failed_time

    # (d) identical seeds reproduce the run bit for bit, in any block order
    params = SimParams(**DEFAULTS, periods=60, master_seed=424242)
    with mock.patch.object(sim, "PERIODS_PER_BLOCK", 8):
        serial = simulate(params)
        order = list(range(block_count(params)))
        random.Random(1).shuffle(order)
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            built = dict(pool.map(lambda block: (block, block_traces(params, block)), order))
        rerun = simulate(params)
    assert len(built) == 8
    parallel = lay_end_to_end(params, [trace for block in sorted(built) for trace in built[block]])
    assert np.array_equal(serial.arrival_times, parallel.arrival_times)
    assert np.array_equal(serial.failure_times, parallel.failure_times)
    assert np.array_equal(serial.arrival_times, rerun.arrival_times)

    note(
        "criterion 8 PASS: Lindley == event queue (exact), split-invariant "
        "trapezoids (exact), degenerate error == failed fraction (exact), "
        "seed-deterministic with blocks built out of order in parallel (exact)"
    )


def test_criterion_9_distributional_properties(timeline_100k):
    # failure durations against Exp(nu) on the pinned run
    ks_fail = stats.kstest(timeline_100k.times_to_failure, "expon", args=(0, 1.0 / NU))
    assert ks_fail.pvalue > 0.01
    # steady-state delivery gaps against Exp(lam): long working spans, with
    # the queue warm-up and the failure-truncation bias dodged by skipping
    # the first 200 gaps of each period (see test_sim for the biased variant)
    tl = simulate(SimParams(lam=LAM, mu=MU, nu=1e-4, r=5.0, periods=220, master_seed=99))
    offsets = np.concatenate(([0], np.cumsum(tl.delivered_counts)))
    gaps = np.concatenate([
        np.diff(tl.arrival_times[offsets[p]:offsets[p + 1]])[200:]
        for p in range(tl.start_times.size)
        if tl.delivered_counts[p] > 220
    ])
    ks_burke = stats.kstest(gaps, "expon", args=(0, 1.0 / LAM))
    assert ks_burke.pvalue > 0.01
    note(
        f"criterion 9 PASS: KS Exp(nu) on failure times p={ks_fail.pvalue:.3f}, "
        f"KS Exp(lam) on {gaps.size} steady delivery gaps p={ks_burke.pvalue:.3f} "
        f"(both > 0.01)"
    )


def test_ratio_halfwidths_agree_with_the_reference_bootstrap(table_100k):
    # The regenerative ratio half-widths against the 1000-resample
    # percentile bootstrap they replaced, on the pinned 10^5-period run: the
    # age 0.006320 vs 0.006194, the full-span error 0.0002217 vs 0.0002265
    # and the detection-scope error 0.0001973 vs 0.0001988. At 1000
    # resamples the bootstrap's percentiles carry a few percent of noise of
    # their own, so they agree within 5%.
    [summary] = table_rows(table_100k, [MAP_TAU])
    fp, fn, reacq = tau_columns(table_100k, MAP_TAU)
    numerators = np.vstack((table_100k.areas, fp + fn, fp - reacq + fn))
    bootstrap = bootstrap_halfwidths(SEED, numerators, table_100k.lengths, 1000, 0.95)
    ratio = [summary["aoi_ci"], summary["err_ci"], summary["err_detection_ci"]]
    assert ratio == pytest.approx(bootstrap.tolist(), rel=0.05)
    note(
        "ratio half-widths (age, full-span error, detection-scope error) "
        f"{ratio[0]:.6f} / {ratio[1]:.7f} / {ratio[2]:.7f} agree with the bootstrap's "
        f"{bootstrap[0]:.6f} / {bootstrap[1]:.7f} / {bootstrap[2]:.7f} within 5%"
    )
