import math

import numpy as np
import pytest

from unittest import mock

import agemon.sim as sim
from agemon import EmptyTimelineError, ParameterError, map_threshold, simulate_table, summarize
from conftest import MAP_TAU, empirical_columns, manual_period, manual_timeline, sawtooth_timeline, tau_columns
from reference import (
    estimated_state_trajectory,
    naive_error_times,
    naive_slice_mismatch,
    period_table,
    timeline_from_periods,
)

TAU_DEFAULT = 9.158362006503506  # log(0.5/0.005 + 2) / 0.505


class TestThreshold:
    def test_standard_configuration(self):
        assert map_threshold(0.5, 0.005) == pytest.approx(9.16, abs=0.005)
        assert map_threshold(0.5, 0.005) == pytest.approx(TAU_DEFAULT, rel=1e-15)

    def test_unit_log_case(self):
        # lam/nu + 2 = e makes the log 1, so tau = 1/(lam + nu)
        lam = math.e - 2.0
        assert map_threshold(lam, 1.0) == pytest.approx(1.0 / (math.e - 1.0), rel=1e-12)

    @pytest.mark.parametrize("c", [0.1, 2.0, 17.5])
    def test_rate_scaling(self, c):
        # scaling both rates by c scales the threshold by 1/c
        assert map_threshold(0.5 * c, 0.005 * c) == pytest.approx(TAU_DEFAULT / c, rel=1e-12)

    @pytest.mark.parametrize("lam,nu", [
        (0.0, 1.0), (1.0, 0.0), (-1.0, 1.0),
        (math.inf, 1.0), (math.nan, 1.0), (1.0, math.inf), (1.0, math.nan),
    ])
    def test_invalid_rates(self, lam, nu):
        # each case breaks one rate and leaves the other at 1.0
        field = "nu" if lam == 1.0 else "lam"
        with pytest.raises(ParameterError, match=f"^{field} must be"):
            map_threshold(lam, nu)

    def test_summarize_rejects_an_invalid_threshold(self, small_timeline):
        # every threshold is checked when the table is built for it, before
        # anything is simulated; inf is valid
        with mock.patch.object(sim, "_simulation", side_effect=AssertionError("simulated")):
            for tau in (-1.0, -math.inf, math.nan):
                with pytest.raises(ParameterError, match=f"^tau must be >= 0, got {tau}$"):
                    summarize(simulate_table(small_timeline.params, [MAP_TAU, math.inf, tau]))


def single_span_timeline(arrivals, T=None, r=50.0):
    """One period whose deliveries arrive at the given times."""
    arrivals = list(arrivals)
    T = T if T is not None else arrivals[-1] + 1.0
    gens = [a - 0.25 for a in arrivals]  # generation times do not matter here
    gens[0] = 0.0
    return manual_timeline([(T, r, gens, arrivals)])


class TestEstimatedTrajectory:
    def test_short_gap_never_flips(self):
        tau = 4.0
        tl = single_span_timeline([0.5, 0.5 + 0.5 * tau], T=0.5 + 0.5 * tau + 0.1, r=tau)
        _, _, failed = estimated_state_trajectory(tl, tau)
        assert not failed[:2].any()

    def test_single_crossing(self):
        tau = 4.0
        tl = single_span_timeline([1.0, 1.0 + 2 * tau], T=1.0 + 2 * tau + 0.1, r=100.0)
        starts, ends, failed = estimated_state_trajectory(tl, tau)
        intervals = list(zip(starts.tolist(), ends.tolist(), failed.tolist()))
        # working on [1, 1+tau), failed on [1+tau, 1+2tau), working again after
        assert intervals[0] == (1.0, 1.0 + tau, False)
        assert intervals[1] == (1.0 + tau, 1.0 + 2 * tau, True)
        assert intervals[2][2] is False

    def test_degenerate_single_interval(self):
        tl = single_span_timeline([1.0, 30.0], T=31.0, r=2.0)
        starts, ends, failed = estimated_state_trajectory(tl, math.inf)
        assert starts.size == 1
        assert (starts[0], ends[0], failed[0]) == (1.0, tl.end_time, False)

    def test_contiguous_cover(self, small_timeline):
        starts, ends, _ = estimated_state_trajectory(small_timeline, MAP_TAU)
        assert np.array_equal(starts[1:], ends[:-1])
        assert starts[0] == small_timeline.arrival_times[0]
        assert ends[-1] == small_timeline.end_time
        assert np.all(ends > starts)

    def test_empty_timeline(self):
        tl = manual_timeline([(1.0, 2.0, [0.0], [])])
        with pytest.raises(EmptyTimelineError):
            estimated_state_trajectory(tl, 1.0)


def random_manual_timelines():
    """25 draws of (timeline, tau): 1-5 random periods, any of which may
    deliver nothing, and a finite threshold."""
    rng = np.random.default_rng(17)
    for _ in range(25):
        specs = []
        for _p in range(int(rng.integers(1, 6))):
            T = float(rng.uniform(2.0, 15.0))
            gens = np.cumsum(rng.uniform(0.2, 2.0, size=int(rng.integers(1, 7))))
            gens = np.concatenate(([0.0], gens))
            gens = gens[gens <= T]
            arrs = np.cumsum(rng.uniform(0.2, 2.5, size=gens.size)) + 0.1
            arrs = arrs[arrs <= T]
            specs.append((T, float(rng.uniform(1.0, 8.0)), gens.tolist(), arrs.tolist()))
        if not any(len(s[3]) for s in specs):
            continue
        yield manual_timeline(specs), float(rng.uniform(0.3, 6.0))


def error_times(timeline, tau):
    """The whole-run false-positive, false-negative and reacquisition
    false-positive times at threshold tau: its error columns' sums."""
    return tau_columns(period_table(timeline, [tau]), tau).sum(axis=1).tolist()


class TestEmpiricalError:
    def test_single_period_by_hand(self):
        # last arrival 3.4, failure at 5, recovery ends at 25, tau = 9.16:
        # the estimate turns FAILED at 12.56, so [5, 12.56] is missed outage
        tau = 9.16
        tl = manual_timeline([(5.0, 20.0, [0.0, 1.0, 1.5], [2.0, 2.4, 3.4])])
        fp, fn, _ = error_times(tl, tau)
        # one period is too few for summarize's half-widths: the rate is the
        # table's own sums over its measured time
        span = period_table(tl, [tau]).measured_time
        assert fn == pytest.approx(3.4 + tau - 5.0)
        assert fp == pytest.approx(0.0, abs=1e-12)
        assert span == pytest.approx(23.0)
        assert (fp + fn) / span == pytest.approx((3.4 + tau - 5.0) / 23.0)

    def test_short_working_gap_no_false_positive(self):
        tau = 5.0
        tl = single_span_timeline([1.0, 4.0], T=10.0, r=100.0)
        fp, _, reacq = error_times(tl, tau)
        assert reacq == 0.0
        # the only false positive is the tail of the final gap before failure
        assert fp == pytest.approx(10.0 - 4.0 - tau)

    def test_long_working_gap_contributes_gap_minus_tau(self):
        tau = 2.0
        tl = single_span_timeline([1.0, 9.0], T=9.5, r=100.0)
        fp, _, _ = error_times(tl, tau)
        # gap of 8 inside the working span -> 8 - tau, plus (9.5 - 9 - tau)+ = 0 tail
        assert fp == pytest.approx(8.0 - tau)

    def test_degenerate_rule_counts_exact_outage_time(self):
        tl = manual_timeline([
            (4.0, 2.0, [0.0, 1.0], [1.5, 3.0]),
            (3.0, 2.0, [0.0], [0.5]),
        ])
        # the rule that always declares WORKING
        fp, fn, _ = error_times(tl, math.inf)
        row = empirical_columns(period_table(tl, [math.inf]), math.inf)
        in_failure = sum(
            max(0.0, e - max(f, tl.arrival_times[0]))
            for f, e in zip(tl.failure_times, tl.recovery_ends)
        )
        assert fn == in_failure
        assert fp == 0.0
        assert row["err_empirical"] == in_failure / row["measured_time"]

    def test_matches_naive_interval_walk(self):
        for tl, tau in random_manual_timelines():
            got_fp, got_fn, _ = error_times(tl, tau)
            fp, fn = naive_error_times(tl, tau)
            assert got_fp == pytest.approx(fp, abs=1e-10)
            assert got_fn == pytest.approx(fn, abs=1e-10)

    def test_time_shift_invariance(self):
        # dyadic values, shifted by a power of two: results are bit-identical
        specs = [(4.0, 2.0, [0.0, 1.0], [1.5, 3.0]), (3.0, 2.0, [0.0], [0.5])]
        base = manual_timeline(specs)
        shifted_periods, start = [], 2048.0
        for T, r, gens, arrs in specs:
            shifted_periods.append(manual_period(start, T, r, gens, arrs))
            start = shifted_periods[-1].recovery_end
        shifted = timeline_from_periods(base.params, shifted_periods)
        tau = 1.25
        a, b = (error_times(tl, tau) for tl in (base, shifted))
        assert a[:2] == b[:2]
        a, b = (empirical_columns(period_table(tl, [tau]), tau) for tl in (base, shifted))
        assert a["err_empirical"] == b["err_empirical"]

    def test_reacquisition_split_consistency(self, small_timeline):
        fp, fn, reacq = error_times(small_timeline, MAP_TAU)
        row = empirical_columns(period_table(small_timeline, [MAP_TAU]), MAP_TAU)
        assert 0.0 <= reacq <= fp
        assert row["err_detection"] < row["err_empirical"]
        assert row["err_empirical"] == pytest.approx((fp + fn) / row["measured_time"])
        # with tau < r, z exceeds tau during every reacquisition span, so the
        # reacquisition false-positive time is exactly the r1 time
        assert row["reacquisition_fp_time"] == pytest.approx(row["time_r1"], rel=1e-12)

    def test_per_slice_mismatch_matches_naive_interval_walk(self):
        for tl, tau in random_manual_timelines():
            got = tau_columns(period_table(tl, [tau]), tau)
            for row, want in zip(got, naive_slice_mismatch(tl, tau)):
                assert row == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("timeline", [
        # the middle period delivers nothing
        manual_timeline([
            (4.0, 2.0, [0.0, 1.0], [1.5, 3.0]),
            (1.0, 2.0, [0.0], []),
            (4.0, 2.0, [0.0, 2.0], [1.0, 3.5]),
        ]),
        # a delivery exactly at the start of the run's only period
        sawtooth_timeline([0.0, 1.0, 4.5], [0.5, 0.25, 1.0], 9.0),
        # and at the start of a later period
        manual_timeline([(3.0, 1.5, [0.0], [1.0]), (5.0, 1.5, [0.0, 0.5], [0.0, 2.0])]),
        # r = 0: each failure is the next period's start, and deliveries
        # land exactly on both
        manual_timeline([
            (3.0, 0.0, [0.0, 1.0], [0.5, 3.0]),
            (2.0, 0.0, [0.0], [0.0]),
            (6.0, 0.0, [0.0, 0.5], [1.0, 1.5]),
        ]),
    ], ids=["no-delivery", "delivery-at-run-start", "delivery-at-period-start", "r0"])
    # tau = 2 is r of the first and the fourth timeline, scored as z > tau
    @pytest.mark.parametrize("tau", [0.0, 0.25, 1.0, 2.0, 2.5, 6.0, math.inf],
                             ids=["tau0", "tau0.25", "tau1", "tau2", "tau2.5", "tau6", "degenerate"])
    def test_per_slice_mismatch_edge_cases(self, timeline, tau):
        got = tau_columns(period_table(timeline, [tau]), tau)
        for row, want in zip(got, naive_slice_mismatch(timeline, tau)):
            assert row == pytest.approx(want, abs=1e-12)

    def test_per_period_mismatch_sums_to_total(self, small_timeline):
        table = period_table(small_timeline, [MAP_TAU])
        fp, fn, reacq = tau_columns(table, MAP_TAU)
        fp_time, fn_time, _ = error_times(small_timeline, MAP_TAU)
        assert (fp + fn).sum() == pytest.approx(fp_time + fn_time, rel=1e-9)
        # each slice's mismatch fits in the slice, its missed outage in r3,
        # and its reacquisition false positives in its false positives, up to
        # rounding at the run's absolute times
        slack = 4 * np.spacing(small_timeline.end_time)
        assert np.all(fp + fn <= table.lengths + slack)
        assert np.all(fn <= table.region_times[2] + slack)
        assert np.all((0 <= reacq) & (reacq <= fp + slack))
