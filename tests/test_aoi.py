import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agemon import EmptyTimelineError
from conftest import empirical_columns, manual_timeline, sawtooth_timeline
from reference import period_table


class TestTrajectory:
    def test_two_deliveries(self):
        # deliveries (d, a) = (0, 2), (1, 2.4) inside one period: the age is
        # 2 at 2.0, climbs to 2.4 just before the reset at 2.4, drops to 1.4
        # there, and is 4.0 at the failure at 5 and 24 at the recovery end
        tl = manual_timeline([(5.0, 20.0, [0.0, 1.0, 1.5], [2.0, 2.4])])
        table = period_table(tl, ())
        assert tl.arrival_times[0] == 2.0
        assert tl.end_time == 25.0
        assert table.measured_time == 23.0
        r2, r3 = table.region_areas[1:, 0]
        assert r2 == pytest.approx(0.4 * (2.0 + 2.4) / 2 + 2.6 * (1.4 + 4.0) / 2)
        assert r3 == pytest.approx(20.0 * (4.0 + 24.0) / 2)

    def test_single_delivery_linear(self):
        # age 1 at the arrival at 1.0, rising linearly to 3 at the end, 3.0
        tl = manual_timeline([(2.0, 1.0, [0.0], [1.0])])
        table = period_table(tl, ())
        assert tl.end_time == 3.0
        assert float(table.areas.sum()) == 2.0 * (1.0 + 3.0) / 2
        assert table.aoi == 2.0

    def test_zero_service_resets_to_zero(self):
        # the update generated at 1.0 arrives at once: the age restarts from
        # 0 at 1.0 and is 1.0 at the failure at 2.0
        tl = manual_timeline([(2.0, 1.0, [0.0, 1.0], [0.5, 1.0])])
        table = period_table(tl, ())
        assert table.region_areas[2, 0] == 1.0 * (1.0 + 2.0) / 2
        assert float(table.areas.sum()) == 0.5 * (0.5 + 1.0) / 2 + 2.0 * (0.0 + 2.0) / 2

    def test_no_deliveries(self):
        tl = manual_timeline([(1.0, 2.0, [0.0], [])])
        with pytest.raises(EmptyTimelineError):
            period_table(tl, ())

    def test_everywhere_nonnegative(self, small_timeline):
        assert np.all(small_timeline.arrival_times - small_timeline.arrival_generations >= 0)
        table = period_table(small_timeline, ())
        assert np.all(table.areas >= 0)
        assert np.all(table.region_areas >= 0)


class TestTimeAverage:
    def test_trapezoid_by_hand(self):
        # span [2, 2.4] starting at age 2: (2 + 2.4)/2
        table = period_table(sawtooth_timeline([2.0], [2.0], 2.4), ())
        assert table.aoi == pytest.approx(2.2)

    def test_pedestal(self):
        # age A over length L with no resets averages A + L/2
        table = period_table(sawtooth_timeline([0.0], [7.0], 5.0), ())
        assert table.aoi == pytest.approx(7.0 + 2.5)

    def test_deterministic_sawtooth(self):
        # resets to age y every g seconds: average y + g/2
        y, g, teeth = 1.5, 4.0, 50
        table = period_table(sawtooth_timeline(g * np.arange(teeth), np.full(teeth, y), g * teeth), ())
        assert table.aoi == pytest.approx(y + g / 2)

    def test_zero_span(self):
        with pytest.raises(EmptyTimelineError):
            period_table(sawtooth_timeline([1.0], [1.0], 1.0), ())

    def test_split_additivity_exact_on_dyadic_grid(self):
        # all values are small dyadics, so every intermediate float op is
        # exact and splitting changes nothing, bit for bit
        times = [0.0, 1.0, 2.5, 4.0]
        ages = [0.5, 0.25, 1.0, 0.75]
        base_timeline = sawtooth_timeline(times, ages, 8.0)
        split_timeline = sawtooth_timeline(times, ages, 8.0, cuts=[0.5, 1.5, 3.0, 6.0])
        base, split = period_table(base_timeline, ()), period_table(split_timeline, ())
        assert split_timeline.arrival_times.size == base_timeline.arrival_times.size + 4
        assert np.array_equal(split.areas, base.areas)
        assert split.aoi == base.aoi

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0.01, 50.0), min_size=1, max_size=30), st.integers(0, 2**32 - 1))
    def test_split_additivity_generic(self, gaps, seed):
        rng = np.random.default_rng(seed)
        times = np.concatenate(([0.0], np.cumsum(gaps)[:-1])) if len(gaps) > 1 else np.array([0.0])
        ages = rng.uniform(0.0, 10.0, size=times.size)
        end = float(times[-1] + gaps[-1])
        cuts = rng.uniform(0.0, end, size=7)
        assert period_table(sawtooth_timeline(times, ages, end, cuts), ()).aoi == pytest.approx(
            period_table(sawtooth_timeline(times, ages, end), ()).aoi, rel=1e-12
        )


class TestIntervalAreas:
    def test_matches_segment_sum(self, small_timeline):
        # the slices' areas add up to the trapezoids of every arrival gap
        table = period_table(small_timeline, ())
        arrivals = small_timeline.arrival_times
        gaps = np.diff(arrivals, append=small_timeline.end_time)
        ages = arrivals - small_timeline.arrival_generations
        assert float(table.areas.sum()) == pytest.approx(float(np.sum(gaps * (ages + 0.5 * gaps))), rel=1e-9)

    def test_single_segment_interval(self):
        # the outage r3 = [2.4, 4.4) lies inside the segment after the last
        # arrival: age from 1.4 to 3.4 over 2 s
        tl = manual_timeline([(2.4, 2.0, [0.0, 1.0, 1.5], [2.0, 2.4])])
        area = period_table(tl, ()).region_areas[2]
        assert area[0] == pytest.approx(2.0 * (1.4 + 3.4) / 2)


class TestRegions:
    def test_structure_small(self):
        # period 1: deliveries; period 2: outage-only; period 3: deliveries
        tl = manual_timeline([
            (4.0, 2.0, [0.0, 1.0], [1.5, 3.0]),
            (1.0, 2.0, [0.0], []),
            (4.0, 2.0, [0.0, 2.0], [1.0, 3.5]),
        ])
        regions = empirical_columns(period_table(tl, [0.0]))
        # measured span starts at the first arrival 1.5
        # r1: [6, 7) from period 2 (no delivery: pre-failure span) and [9, 10) from period 3
        assert regions["time_r1"] == pytest.approx(2.0)
        # r2: [1.5, 4) and [10, 13)
        assert regions["time_r2"] == pytest.approx(2.5 + 3.0)
        # r3: [4, 6), [7, 9), [13, 15): the outage-only period still adds r
        assert regions["time_r3"] == pytest.approx(6.0)
        span = tl.recovery_ends[-1] - 1.5
        assert regions["time_r1"] + regions["time_r2"] + regions["time_r3"] == pytest.approx(span)

    def test_weighted_combination_is_overall_average(self, small_timeline):
        table = period_table(small_timeline, [0.0])
        regions = empirical_columns(table)
        overall = table.aoi
        total_time = regions["time_r1"] + regions["time_r2"] + regions["time_r3"]
        combined = (
            regions["avg_r1"] * regions["time_r1"]
            + regions["avg_r2"] * regions["time_r2"]
            + regions["avg_r3"] * regions["time_r3"]
        ) / total_time
        assert combined == pytest.approx(overall, rel=1e-12)
        assert total_time == pytest.approx(
            small_timeline.end_time - small_timeline.arrival_times[0], rel=1e-12
        )

    def test_region_ordering_statistical(self, small_timeline):
        # outage and reacquisition run at much higher age than normal operation
        regions = empirical_columns(period_table(small_timeline, [0.0]))
        assert regions["avg_r1"] > regions["avg_r3"] > regions["avg_r2"]
