import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agemon import (
    AoiTrajectory,
    EmptyTimelineError,
    SimParams,
    age_trajectory,
    period_table,
    simulate,
    time_average_aoi,
)
from conftest import manual_timeline


def split_trajectory(traj, extra_times):
    """The same piecewise-linear age with additional breakpoints inserted."""
    extra_times = np.asarray(extra_times, dtype=np.float64)
    extra_ages = traj.age_at(extra_times)
    times = np.concatenate((traj.times, extra_times))
    ages = np.concatenate((traj.ages, extra_ages))
    order = np.argsort(times, kind="stable")
    return AoiTrajectory(times[order], ages[order], traj.measurement_start, traj.measurement_end)


class TestTrajectory:
    def test_two_deliveries(self):
        # deliveries (d, a) = (0, 2), (1, 2.4) inside one period
        tl = manual_timeline([(5.0, 20.0, [0.0, 1.0, 1.5], [2.0, 2.4])])
        traj = age_trajectory(tl)
        assert traj.measurement_start == 2.0
        assert traj.measurement_end == 25.0
        assert traj.age_at(2.0) == 2.0
        assert traj.age_at(2.375) == pytest.approx(2.375)  # just before the reset
        assert traj.age_at(2.4) == pytest.approx(1.4)      # right-continuous drop
        assert traj.age_at(4.4) == pytest.approx(3.4)

    def test_single_delivery_linear(self):
        tl = manual_timeline([(2.0, 1.0, [0.0], [1.0])])
        traj = age_trajectory(tl)
        assert traj.age_at(1.0) == 1.0
        assert traj.age_at(3.0) == 3.0
        assert traj.measurement_end == 3.0

    def test_zero_service_resets_to_zero(self):
        tl = manual_timeline([(2.0, 1.0, [0.0, 1.0], [0.5, 1.0])])
        traj = age_trajectory(tl)
        assert traj.age_at(1.0) == 0.0

    def test_no_deliveries(self):
        tl = manual_timeline([(1.0, 2.0, [0.0], [])])
        with pytest.raises(EmptyTimelineError):
            age_trajectory(tl)

    def test_everywhere_nonnegative(self, small_timeline):
        traj = age_trajectory(small_timeline)
        assert np.all(traj.ages >= 0)


class TestTimeAverage:
    def test_trapezoid_by_hand(self):
        # span [2, 2.4] starting at age 2: (2 + 2.4)/2
        traj = AoiTrajectory(np.array([2.0]), np.array([2.0]), 2.0, 2.4)
        assert time_average_aoi(traj) == pytest.approx(2.2)

    def test_pedestal(self):
        # age A over length L with no resets averages A + L/2
        traj = AoiTrajectory(np.array([0.0]), np.array([7.0]), 0.0, 5.0)
        assert time_average_aoi(traj) == pytest.approx(7.0 + 2.5)

    def test_deterministic_sawtooth(self):
        # resets to age y every g seconds: average y + g/2
        y, g, teeth = 1.5, 4.0, 50
        times = g * np.arange(teeth)
        traj = AoiTrajectory(times, np.full(teeth, y), 0.0, g * teeth)
        assert time_average_aoi(traj) == pytest.approx(y + g / 2)

    def test_zero_span(self):
        traj = AoiTrajectory(np.array([1.0]), np.array([1.0]), 1.0, 1.0)
        with pytest.raises(EmptyTimelineError):
            time_average_aoi(traj)

    def test_split_additivity_exact_on_dyadic_grid(self):
        # all values are small dyadics, so every intermediate float op is
        # exact and splitting changes nothing, bit for bit
        times = np.array([0.0, 1.0, 2.5, 4.0])
        ages = np.array([0.5, 0.25, 1.0, 0.75])
        traj = AoiTrajectory(times, ages, 0.0, 8.0)
        split = split_trajectory(traj, [0.5, 1.5, 3.0, 6.0])
        assert time_average_aoi(split) == time_average_aoi(traj)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0.01, 50.0), min_size=1, max_size=30), st.integers(0, 2**32 - 1))
    def test_split_additivity_generic(self, gaps, seed):
        rng = np.random.default_rng(seed)
        times = np.concatenate(([0.0], np.cumsum(gaps)[:-1])) if len(gaps) > 1 else np.array([0.0])
        ages = rng.uniform(0.0, 10.0, size=times.size)
        end = float(times[-1] + gaps[-1])
        traj = AoiTrajectory(times, ages, 0.0, end)
        cuts = rng.uniform(0.0, end, size=7)
        assert time_average_aoi(split_trajectory(traj, cuts)) == pytest.approx(
            time_average_aoi(traj), rel=1e-12
        )


class TestIntervalAreas:
    def test_matches_segment_sum(self, small_timeline):
        traj = age_trajectory(small_timeline)
        total = time_average_aoi(traj) * (traj.measurement_end - traj.measurement_start)
        areas = period_table(small_timeline).areas
        assert float(areas.sum()) == pytest.approx(total, rel=1e-9)

    def test_single_segment_interval(self):
        # the outage r3 = [2.4, 4.4) lies inside the segment after the last
        # arrival: age from 1.4 to 3.4 over 2 s
        tl = manual_timeline([(2.4, 2.0, [0.0, 1.0, 1.5], [2.0, 2.4])])
        area = period_table(tl).region_areas[2]
        assert area[0] == pytest.approx(2.0 * (1.4 + 3.4) / 2)


class TestRegions:
    def test_structure_small(self):
        # period 1: deliveries; period 2: outage-only; period 3: deliveries
        tl = manual_timeline([
            (4.0, 2.0, [0.0, 1.0], [1.5, 3.0]),
            (1.0, 2.0, [0.0], []),
            (4.0, 2.0, [0.0, 2.0], [1.0, 3.5]),
        ])
        regions = period_table(tl).regions
        # measured span starts at the first arrival 1.5
        # r1: [6, 7) from period 2 (no delivery: pre-failure span) and [9, 10) from period 3
        assert regions.time_r1 == pytest.approx(2.0)
        # r2: [1.5, 4) and [10, 13)
        assert regions.time_r2 == pytest.approx(2.5 + 3.0)
        # r3: [4, 6), [7, 9), [13, 15): the outage-only period still adds r
        assert regions.time_r3 == pytest.approx(6.0)
        span = tl.recovery_ends[-1] - 1.5
        assert regions.total_time == pytest.approx(span)

    def test_weighted_combination_is_overall_average(self, small_timeline):
        regions = period_table(small_timeline).regions
        traj = age_trajectory(small_timeline)
        overall = time_average_aoi(traj)
        combined = (
            regions.avg_r1 * regions.time_r1
            + regions.avg_r2 * regions.time_r2
            + regions.avg_r3 * regions.time_r3
        ) / regions.total_time
        assert combined == pytest.approx(overall, rel=1e-12)
        assert regions.total_time == pytest.approx(
            traj.measurement_end - traj.measurement_start, rel=1e-12
        )

    def test_region_ordering_statistical(self, small_timeline):
        # outage and reacquisition run at much higher age than normal operation
        regions = period_table(small_timeline).regions
        assert regions.avg_r1 > regions.avg_r3 > regions.avg_r2
