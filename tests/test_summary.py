import dataclasses
import math
import tracemalloc
import warnings
from statistics import NormalDist
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import agemon.sim as sim
import agemon.summary
import reference
from agemon import EmptyTimelineError, ParameterError, SimParams, map_threshold, simulate_table, summarize
from agemon.report import COLUMNS, project, run_row
from agemon.experiments import measure
from agemon.summary import _ratio_halfwidth
from conftest import DEFAULTS, MAP_TAU, SEED, empirical_columns, manual_timeline, tau_columns
from reference import age_pieces, bootstrap_halfwidths, period_table, simulate

# float.hex of every float of the optimal rule's summarize(...) in `simulate`'s
# output at 300 periods. The metric paths reproduced the earlier per-function paths bit
# for bit; these values were recorded once more when the stream contract
# changed to per-block streams, and the avg_r* and half-width fields again
# when per-period sums replaced run-wide prefix-sum differences (their last
# bits moved), then when the bootstrap's stream key moved (contract 3), and
# once more when every total became a column sum of the period table (the
# mean age, region and false-positive totals moved by <= 5.8e-16 relative).
# The half-widths were recorded again when the regenerative ratio estimator
# replaced the 50-resample bootstrap, which added the detection-scope one.
# Every later change must reproduce them
GOLDEN = {
    20.0: {
        "aoi_time_average": "0x1.1e43ceffcb709p+2",
        "aoi_ci_halfwidth": "0x1.0b60373870690p-3",
        "avg_r1": "0x1.8245193cca94ap+4",
        "avg_r2": "0x1.b537a79a86726p+1",
        "avg_r3": "0x1.b39d0b563c2adp+3",
        "time_r1": "0x1.36f942a5f74e5p+8",
        "time_r2": "0x1.c27d2e954ba52p+15",
        "time_r3": "0x1.7700000000000p+12",
        "error_rate": "0x1.7b68ceeb2b6efp-5",
        "detection_error_rate": "0x1.53969cba324f5p-5",
        "detection_error_ci_halfwidth": "0x1.0606b7126c0b5p-8",
        "error_ci_halfwidth": "0x1.2928ee9f4e090p-8",
        "fp_rate": "0x1.93ffaa5c6c620p-7",
        "fn_rate": "0x1.1668e45410567p-5",
        "reacquisition_fp_time": "0x1.36f942a5f74e5p+8",
        "measured_time": "0x1.f3cb211a9793bp+15",
    },
    # r = 5 <= tau: the optimal rule is degenerate
    5.0: {
        "aoi_time_average": "0x1.c1405da92f6e6p+1",
        "aoi_ci_halfwidth": "0x1.5eb77b9c3e7b8p-5",
        "avg_r1": "0x1.23840eb9dfdffp+3",
        "avg_r2": "0x1.b537a79a8673ap+1",
        "avg_r3": "0x1.7da07d12deb9fp+2",
        "time_r1": "0x1.36f942a5f74adp+8",
        "time_r2": "0x1.c27d2e954ba52p+15",
        "time_r3": "0x1.7700000000000p+10",
        "error_rate": "0x1.9d39c18a26ecep-6",
        "detection_error_rate": "0x1.9d39c18a26ecep-6",
        "detection_error_ci_halfwidth": "0x1.9975c7b7b37d9p-9",
        "error_ci_halfwidth": "0x1.9975c7b7b37d9p-9",
        "fp_rate": "0x0.0p+0",
        "fn_rate": "0x1.9d39c18a26ecep-6",
        "reacquisition_fp_time": "0x0.0p+0",
        "measured_time": "0x1.d0a3211a9793bp+15",
    },
}


@pytest.fixture(scope="module")
def small_table(small_timeline):
    return period_table(small_timeline, [MAP_TAU])


@pytest.fixture(scope="module")
def summary(small_table):
    [summary] = summarize(small_table)
    return summary


class TestSummarize:
    def test_matches_direct_metrics(self, small_table, summary):
        assert summary["aoi_empirical"] == small_table.aoi
        fp, fn, _ = tau_columns(small_table, MAP_TAU).sum(axis=1).tolist()
        assert summary["err_empirical"] == (fp + fn) / small_table.measured_time
        assert summary["measured_time"] == small_table.measured_time
        assert summary["periods"] == 2000
        assert summary["seed"] == SEED

    def test_confidence_intervals_positive_and_reproducible(self, small_table, summary):
        assert summary["aoi_ci"] > 0
        assert summary["err_ci"] > 0
        [again] = summarize(small_table)
        assert again["aoi_ci"] == summary["aoi_ci"]
        assert again["err_ci"] == summary["err_ci"]

    def test_interval_contains_truth_at_this_seed(self, small_timeline, summary):
        # not a guarantee in general, but a sane-width check at 2000 periods
        assert summary["aoi_ci"] < 0.5
        assert abs(summary["aoi_empirical"] - 4.5045) < 3 * summary["aoi_ci"]

    # a faithful run at lam = 0.1, nu = 0.5: a third of its periods deliver
    # nothing, and at this seed none of the first four delivers, so the
    # measured span starts in period 4 and periods 0-3 have empty slices
    EMPTY_START = SimParams(lam=0.1, mu=1.0, nu=0.5, r=2.0, periods=40, master_seed=3)

    def test_infinite_threshold_always_declares_working(self, small_timeline):
        # tau = inf scores every slice's failed time as missed and nothing
        # else, bit for bit as the "always WORKING" rule did; the general
        # path reaches the same columns at a huge finite threshold, also in
        # the empty slices before the first delivery
        taus = [math.inf, 1e300]
        for table in (period_table(small_timeline, taus), simulate_table(self.EMPTY_START, taus)):
            failed = table.region_times[2]
            zeros = np.zeros_like(failed)
            always_working = tau_columns(table, math.inf)
            assert always_working.tobytes() == np.stack((zeros, failed, zeros)).tobytes()
            assert tau_columns(table, 1e300).tobytes() == always_working.tobytes()
            row = empirical_columns(table, math.inf)
            assert row["fp_rate"] == row["reacquisition_fp_time"] == 0.0
            assert row["err_empirical"] == row["err_detection"] == row["time_r3"] / row["measured_time"]

    def test_every_threshold_has_a_hinge_row_and_no_arrival_is_a_sentinel(self):
        taus = [0.0, math.inf, 1.5, math.inf, 1e300]
        table = simulate_table(self.EMPTY_START, taus)
        periods = self.EMPTY_START.periods
        first = int(np.flatnonzero(table.counts)[0])
        assert first == 4
        assert table.hinges.shape == (len(taus), periods)
        assert not table.hinges[[1, 3]].any()
        assert table.last_arrivals.shape == (periods,)
        assert np.isfinite(table.last_arrivals).all()
        # before the first delivery the last arrival reads the span's start,
        # and from then on it never decreases and never passes a slice's end
        assert (table.last_arrivals[:first] == table.edges[0, 0]).all()
        assert (np.diff(table.last_arrivals) >= 0).all()
        assert (table.last_arrivals <= table.edges[3]).all()

    def test_thresholds_read_once_from_any_iterable(self, small_table):
        taus = [0.0, MAP_TAU, math.inf]
        want = [hex_fields(row) for row in summarize(simulate_table(small_table.params, taus))]
        for given in (iter(taus), np.array(taus)):
            table = simulate_table(small_table.params, given)
            assert [hex_fields(row) for row in summarize(table)] == want

    def test_simulate_keys_pinned(self, small_table, summary):
        d = project(run_row(small_table.params, **summary), "simulate")
        assert list(d) == [
            "aoi_time_average", "aoi_ci_halfwidth", "avg_r1", "avg_r2", "avg_r3",
            "time_r1", "time_r2", "time_r3", "error_rate", "detection_error_rate",
            "detection_error_ci_halfwidth", "error_ci_halfwidth", "fp_rate", "fn_rate", "reacquisition_fp_time",
            "measured_time", "periods", "seed", "unstable_queue",
        ]
        # Python scalars, not numpy ones, which would print as np.float64(...)
        assert {type(v) for v in d.values()} <= {float, int, bool}

    def test_explicit_rule_on_unstable_queue(self):
        table = simulate_table(SimParams(lam=1.2, mu=1.0, nu=0.05, r=5.0, periods=50, master_seed=5), [3.0])
        with pytest.raises(ParameterError):
            measure(table.params)  # the optimal rule needs rho < 1
        [s] = summarize(table)
        assert s["unstable_queue"]

    def test_returns_the_rows_empirical_columns(self, small_timeline, summary):
        # exactly these columns of report.COLUMNS, as Python scalars, for
        # every threshold
        assert list(summary) == [
            "periods", "seed", "unstable_queue", "measured_time", "aoi_empirical", "aoi_ci",
            "avg_r1", "avg_r2", "avg_r3", "time_r1", "time_r2", "time_r3",
            "err_empirical", "err_detection", "err_ci", "err_detection_ci",
            "fp_rate", "fn_rate", "reacquisition_fp_time",
        ]
        assert set(summary) <= set(COLUMNS)
        assert {type(v) for v in summary.values()} == {float, int, bool}
        for row in summarize(period_table(small_timeline, [MAP_TAU, 30.0, math.inf])):
            assert list(row) == list(summary)
            assert {type(v) for v in row.values()} == {float, int, bool}


def assert_totals_are_column_sums(table, tau):
    """Every whole-run total of summarize's columns is, bit for bit, a
    column sum of the table or a ratio of one to the measured time."""
    span = table.measured_time
    row = empirical_columns(table, tau)
    assert row["aoi_empirical"] == table.aoi == float(table.areas.sum()) / span
    fp, fn, reacq = [float(column.sum()) for column in tau_columns(table, tau)]
    assert [row["fp_rate"], row["fn_rate"], row["reacquisition_fp_time"]] == [fp / span, fn / span, reacq]
    assert [row["err_empirical"], row["err_detection"]] == [(fp + fn) / span, (fp - reacq + fn) / span]
    assert [row["time_r1"], row["time_r2"], row["time_r3"]] == [float(t.sum()) for t in table.region_times]


class TestPerPeriodStatistics:
    def test_sums_reproduce_whole_run(self, small_timeline, small_table):
        areas, columns, lengths = small_table.areas, tau_columns(small_table, MAP_TAU), small_table.lengths
        span = small_timeline.end_time - small_timeline.arrival_times[0]
        assert lengths.sum() == pytest.approx(span, rel=1e-12)
        assert_totals_are_column_sums(small_table, MAP_TAU)
        assert np.all(lengths >= 0)
        assert np.all(areas >= 0)
        assert np.all(columns >= 0)

    def test_areas_match_fsum_of_pieces(self, small_timeline, small_table):
        # each slice and region sums a few hundred trapezoids; its area is
        # checked against the correctly rounded sum of the same pieces
        arrivals = small_timeline.arrival_times.tolist()
        ages = (small_timeline.arrival_times - small_timeline.arrival_generations).tolist()
        edges = small_table.edges.tolist()
        intervals = [(0, 3, small_table.areas), (0, 1, small_table.region_areas[0]),
                     (1, 2, small_table.region_areas[1]), (2, 3, small_table.region_areas[2])]
        for lo_row, hi_row, got in intervals:
            lo, hi = edges[lo_row], edges[hi_row]
            kept = [p for p in range(len(lo)) if hi[p] > lo[p]]
            want = [math.fsum(age_pieces(arrivals, ages, lo[p], hi[p])) for p in kept]
            np.testing.assert_allclose(got[kept], want, rtol=1e-14, atol=0)


def traced_peak(call):
    """The traced peak of call() above the memory held before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestDeliveryGroups:
    @pytest.fixture(scope="class")
    def timeline(self):
        # ~295k deliveries in 3000 periods; a warm-up call keeps the first
        # call's numpy allocations out of the measurements
        simulate_table(SimParams(**DEFAULTS, periods=2, master_seed=SEED), [MAP_TAU])
        return simulate(SimParams(**DEFAULTS, periods=3000, master_seed=SEED))

    def test_run_by_run_table_peak(self, timeline):
        # simulate_table at 3000 default periods (one run), in units of 8 B
        # per generated packet: the run's departure buffer and services
        # (2x), the lockstep's block buffers and per-period arrays.
        # Measured: 2.41x; 6.35x for period_table(simulate()), which builds
        # the whole Timeline first, one period's deliveries at a time.
        params = timeline.params
        peak = traced_peak(lambda: simulate_table(params, [MAP_TAU]))
        assert peak < 2.75 * 8 * int(timeline.generated_counts.sum())

    # 3000 default periods in 74 or 19 runs
    @pytest.mark.parametrize("block", [2**12, 2**14])
    def test_run_by_run_table_holds_no_run_past_its_turn(self, timeline, block):
        # Above the table's own arrays the peak is the lockstep's block
        # buffers, one run's departure buffer and services and per-period
        # temporaries, whatever the number of runs. Measured: 0.21x and
        # 0.29x of 8 B per delivery with 74 and 19 runs.
        with mock.patch.object(sim, "BLOCK_PACKETS", block):
            table = simulate_table(timeline.params, [MAP_TAU])
            peak = traced_peak(lambda: simulate_table(timeline.params, [MAP_TAU]))
        own = sum(value.nbytes for value in vars(table).values() if isinstance(value, np.ndarray))
        assert peak - own < 0.5 * 8 * int(table.counts.sum())

    def test_error_columns_peak_at_a_group(self, timeline):
        # error_columns reads only per-period columns: its peak is a few of
        # them, below the group of per-delivery terms it once walked (0.25x
        # of 8 B per delivery, 49 cells per period here). Measured: 8.3
        # cells of 8 B per period (0.084x of 8 B per delivery).
        table = simulate_table(timeline.params, [MAP_TAU])
        peak = traced_peak(table.error_columns)
        assert peak < 12 * 8 * table.lengths.size

    def test_scoring_many_thresholds_peaks_at_a_chunk(self, timeline):
        # 200 thresholds are scored in chunks of k = _GROUP_PACKETS // periods
        # (5 here), so above the per-period allowance of one threshold the
        # peak is a few of one chunk's (3, k, periods) columns (0.36 MB),
        # never one per threshold (200 x 3 x 3000 x 8 B = 14.4 MB) nor per
        # delivery. Measured: 1.28 MB, 0.38 MB + 2.5 chunks; 43 MB with no chunks.
        taus = np.linspace(0.5, 30.0, 200).tolist()
        table = simulate_table(timeline.params, taus)
        k = sim._GROUP_PACKETS // table.lengths.size
        assert len(taus) > 9 * k
        chunk = 3 * k * table.lengths.size * 8
        peak = traced_peak(lambda: summarize(table))
        assert peak < 0.25 * 8 * timeline.arrival_times.size + 3 * chunk

    @pytest.mark.parametrize("require_delivery", [False, True])
    def test_group_size_changes_no_bit(self, require_delivery):
        # two blocks; at nu = 0.04 about 4% of faithful periods deliver
        # nothing and many deliver more than 2**6
        params = SimParams(lam=1.0, mu=1.0, nu=0.04, r=5.0, periods=sim.PERIODS_PER_BLOCK + 500,
                           master_seed=SEED, require_delivery=require_delivery)
        counts = simulate_table(params, ()).counts
        assert (counts == 0).any() != require_delivery
        assert counts.max() > 2**6
        taus = [0.5, 2.0, 4.0]

        def columns():
            table = simulate_table(params, taus)
            fields = [getattr(table, f.name) for f in dataclasses.fields(table)]
            # and the columns that summarize reads off them
            return fields + [tau_columns(table, tau) for tau in taus] + [
                hex_fields(row) for row in summarize(table)]

        want = columns()
        for group in (1, 2**6):
            with mock.patch.object(sim, "_GROUP_PACKETS", group):
                got = columns()
            for a, b in zip(got, want, strict=True):
                assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


class TestRunByRunTable:
    """simulate_table(params) builds period_table(simulate(params)) run by
    run with no Timeline, and must equal it field for field, bit for bit,
    whatever the runs, blocks and groups."""

    # unsorted, with a duplicate, 0 and inf
    TAUS = (1.0, 0.0, 4.0, math.inf, 0.25, 1.0)

    @staticmethod
    def table_or_message(build):
        try:
            return build()
        except EmptyTimelineError as error:
            return str(error)

    def assert_same(self, params):
        want = self.table_or_message(lambda: period_table(simulate(params), self.TAUS))
        got = self.table_or_message(lambda: simulate_table(params, self.TAUS))
        if isinstance(want, str):
            assert got == want
            return
        for field in dataclasses.fields(want):
            a, b = getattr(got, field.name), getattr(want, field.name)
            if isinstance(b, np.ndarray):
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), field.name
            else:
                assert a == b, field.name

    @settings(max_examples=60, deadline=None)
    @given(
        lam=st.floats(0.05, 2.0),
        mu=st.floats(0.2, 2.0),
        nu=st.floats(0.01, 1.0),
        r=st.floats(0.0, 30.0),
        periods=st.integers(1, 60),
        seed=st.integers(0, 2**64 - 1),
        require_delivery=st.booleans(),
        block_packets=st.sampled_from([1, 7, 64, sim.BLOCK_PACKETS]),
        periods_per_block=st.sampled_from([1, 4, 16]),
        group=st.sampled_from([1, 7, sim._GROUP_PACKETS]),
    )
    # rho = 4 >= 1
    @example(lam=2.0, mu=0.5, nu=0.05, r=5.0, periods=40, seed=SEED, require_delivery=False,
             block_packets=64, periods_per_block=16, group=7)
    # runs of one period, the first six of which deliver nothing
    @example(lam=0.05, mu=0.2, nu=0.5, r=1.0, periods=40, seed=13, require_delivery=False,
             block_packets=1, periods_per_block=16, group=1)
    def test_equals_period_table_of_simulate(self, lam, mu, nu, r, periods, seed, require_delivery,
                                             block_packets, periods_per_block, group):
        params = SimParams(lam=lam, mu=mu, nu=nu, r=r, periods=periods, master_seed=seed,
                           require_delivery=require_delivery)
        with mock.patch.object(sim, "BLOCK_PACKETS", block_packets), \
                mock.patch.object(sim, "PERIODS_PER_BLOCK", periods_per_block), \
                mock.patch.object(sim, "_GROUP_PACKETS", group):
            self.assert_same(params)

    def test_first_delivery_in_a_later_run(self):
        # the measured span starts in the seventh of 40 one-period runs
        params = SimParams(lam=0.05, mu=0.2, nu=0.5, r=1.0, periods=40, master_seed=13)
        with mock.patch.object(sim, "BLOCK_PACKETS", 1), \
                mock.patch.object(sim, "_departures", wraps=sim._departures) as runs:
            counts = simulate(params).delivered_counts
            assert runs.call_count == 40
            assert counts[:6].tolist() == [0] * 6 and counts[6] > 0
            self.assert_same(params)

    def test_run_without_deliveries_raises_as_period_table(self):
        params = SimParams(lam=0.01, mu=0.01, nu=5.0, r=1.0, periods=3, master_seed=SEED)
        assert simulate(params).delivered_counts.sum() == 0
        for build in (lambda: period_table(simulate(params), ()), lambda: simulate_table(params, ())):
            with pytest.raises(EmptyTimelineError, match=r"^timeline has no deliveries; the age is undefined$"):
                build()

    # one run of 200 periods each, the last one delivered in full: the
    # defaults, two of whose periods deliver nothing, and conditioned at
    # lam = 0.95, whose queues are mostly still busy at the failure
    EDGES = {
        "defaults": SimParams(**DEFAULTS, periods=200, master_seed=SEED),
        "conditioned": SimParams(**{**DEFAULTS, "lam": 0.95}, periods=200, master_seed=SEED,
                                 require_delivery=True),
    }

    @pytest.mark.parametrize("group", [1, 7, 10**9])
    @pytest.mark.parametrize("case", sorted(EDGES))
    def test_row_pass_edges(self, case, group):
        # the run loop's packets are read in place, group by group of whole
        # periods, each period's delivered prefix one reduceat segment; the
        # reference keeps each period's deliveries itself and reads them as
        # one run of deliveries only
        params = self.EDGES[case]
        with mock.patch.object(sim, "_GROUP_PACKETS", group):
            timeline = simulate(params)
            generated, delivered = timeline.generated_counts, timeline.delivered_counts
            ends = [b - 1 for _, b, _, _ in sim._groups(generated)]
            self.assert_same(params)
        # a group that ends in a period delivered in full (reduceat's end
        # bound dropped), periods with undelivered tails and, unconditioned,
        # a period with no delivery
        assert (delivered[ends] == generated[ends]).any()
        assert ((delivered > 0) & (delivered < generated)).any()
        assert (delivered == 0).any() != params.require_delivery

    def test_multi_block_default_table(self):
        # 9000 default periods: three blocks, one run each, and the
        # default group
        self.assert_same(SimParams(**DEFAULTS, periods=9000, master_seed=SEED))


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(-30, 30),
    lam=st.floats(0.05, 2.0),
    mu=st.floats(0.2, 2.0),
    nu=st.floats(0.01, 1.0),
    r=st.just(0.0) | st.floats(0.0, 30.0),
    periods=st.integers(1, 60),
    seed=st.integers(0, 2**64 - 1),
    require_delivery=st.booleans(),
    taus=st.lists(st.just(0.0) | st.just(math.inf) | st.floats(0.0, 40.0), min_size=1, max_size=4),
)
def test_simulate_table_time_scale(k, lam, mu, nu, r, periods, seed, require_delivery, taus):
    # Dividing the rates and multiplying r by c = 2^k multiplies every time
    # of the run by c bit for bit (each exponential draw is a standard draw
    # times its scale, every later step a sum, difference, max, comparison
    # or product), so every time column of the table scales by c, every age
    # area by c^2, and the error columns at thresholds times c by c; a run
    # that raises raises the same at both scales
    c = 2.0**k
    params = SimParams(lam, mu, nu, r, periods=periods, master_seed=seed, require_delivery=require_delivery)
    scaled = SimParams(lam / c, mu / c, nu / c, r * c, periods=periods, master_seed=seed,
                       require_delivery=require_delivery)
    table = TestRunByRunTable.table_or_message(lambda: simulate_table(params, taus))
    got = TestRunByRunTable.table_or_message(lambda: simulate_table(scaled, [c * tau for tau in taus]))
    if isinstance(table, str):
        assert got == table
        return
    assert got.measured_time == c * table.measured_time
    for name, scale in [("lengths", c), ("region_times", c), ("edges", c), ("last_arrivals", c), ("taus", c),
                        ("hinges", c), ("areas", c * c), ("region_areas", c * c), ("counts", 1)]:
        assert getattr(got, name).tobytes() == (scale * getattr(table, name)).tobytes(), name
    assert got.error_columns().tobytes() == (c * table.error_columns()).tobytes()


class TestBatchScoring:
    # A table's thresholds are scored together (summarize in chunks of
    # _GROUP_PACKETS // periods), and each must read exactly as in a table
    # built for it alone, whatever the group and chunk sizes
    @pytest.fixture(scope="class", params=[False, True], ids=["faithful", "conditioned"])
    def params(self, request):
        # the regime of test_group_size_changes_no_bit: at nu = 0.04 about 4%
        # of faithful periods deliver nothing, none of the conditioned ones,
        # and many deliver more than 2**6
        params = SimParams(lam=1.0, mu=1.0, nu=0.04, r=5.0, periods=1000, master_seed=SEED,
                           require_delivery=request.param)
        counts = simulate_table(params, ()).counts
        assert (counts == 0).any() != request.param
        assert counts.max() > 2**6
        return params

    def test_each_threshold_reads_as_if_scored_alone(self, params):
        timeline = simulate(params)
        # each delivery's gap to the next arrival, the last one's to the run's end
        gaps = np.sort(np.diff(timeline.arrival_times, append=timeline.end_time))
        inside = [float(gaps[gaps.size // 2]), float(gaps[-gaps.size // 50]), 0.5 * float(gaps[-1])]
        # unsorted, with duplicates, 0, inf and one above every gap; 11 of
        # them, so chunks of 2 leave a partial last chunk
        taus = [inside[1], 0.0, math.inf, 2.0 * float(gaps[-1]), inside[0], inside[1], 4.0, math.inf,
                inside[2], 0.0, 1.0]
        alone = [simulate_table(params, [tau]) for tau in taus]
        rows = [hex_fields(summary) for table in alone for summary in summarize(table)]
        periods = params.periods
        # chunks of 1, 1 and 2 thresholds; the last leaves a partial chunk
        for group in (1, 2**6, 2 * periods):
            with mock.patch.object(sim, "_GROUP_PACKETS", group):
                table = simulate_table(params, taus)
                batch = table.error_columns()
                assert [hex_fields(summary) for summary in summarize(table)] == rows, group
            assert batch.shape == (3, len(taus), periods)
            for k, want in enumerate(alone):
                assert batch[:, k].tobytes() == want.error_columns()[:, 0].tobytes(), (group, taus[k])
        # and tau = inf raises no floating-point warning beside finite ones
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            simulate_table(params, taus).error_columns()


@pytest.mark.parametrize("r", sorted(GOLDEN))
def test_summary_bit_identical_to_recorded(r):
    # the optimal rule; at tau >= r it collapses to always WORKING, tau = inf
    tau = map_threshold(DEFAULTS["lam"], DEFAULTS["nu"])
    table = simulate_table(SimParams(**{**DEFAULTS, "r": r}, periods=300, master_seed=SEED),
                           [math.inf if tau >= r else tau])
    [summary] = summarize(table)
    record = project(run_row(table.params, **summary), "simulate")
    floats = {key: float.hex(value) for key, value in record.items() if isinstance(value, float)}
    assert floats == GOLDEN[r]


def hex_fields(summary):
    """Every column of a summarize dict, floats as float.hex (NaN included)."""
    return [float.hex(v) if isinstance(v, float) else v for v in summary.values()]


class TestSummarizeRules:
    # 0, below, at and above the MAP threshold (~9.158), then r itself, one
    # above it and the always-WORKING inf, then one more, so calls mix the
    # general path and the shortcut
    TAUS = (0.0, 4.0, 9.158362006503506, 15.0, 20.0, 31.5, math.inf, 7.25)

    # The case ids are those of the bootstrap these tests once covered, so
    # they stay stable: "300-40" was 40 resamples, "1-10" a one-period run
    # and "300-0" a run without half-widths; the chunk sizes were rules per
    # bootstrap pass. Every run now has half-widths, so "1-10" is the
    # fewest periods that have them and "300-0" a conditioned run
    @pytest.mark.parametrize("chunk", [1, 3, 32])
    @pytest.mark.parametrize("periods,require_delivery", [
        pytest.param(300, False, id="300-40"),
        pytest.param(2, False, id="1-10"),
        pytest.param(300, True, id="300-0"),
    ])
    def test_equals_summarize_per_rule(self, chunk, periods, require_delivery):
        params = SimParams(**DEFAULTS, periods=periods, master_seed=SEED, require_delivery=require_delivery)
        rules = list(self.TAUS)
        # each rule alone, then the rules in chunks, then all at once
        expected = [hex_fields(summary) for rule in rules for summary in summarize(simulate_table(params, [rule]))]
        chunked = [s for i in range(0, len(rules), chunk) for s in summarize(simulate_table(params, rules[i:i + chunk]))]
        assert [hex_fields(s) for s in chunked] == expected
        batched = summarize(simulate_table(params, rules))
        assert [hex_fields(s) for s in batched] == expected
        assert all(s[key] > 0 for s in batched for key in ("aoi_ci", "err_ci", "err_detection_ci"))

    # The case ids were resample counts: "0" now scores the thresholds in
    # one chunk, "20" one threshold per chunk
    @pytest.mark.parametrize("group", [pytest.param(sim._GROUP_PACKETS, id="0"), pytest.param(1, id="20")])
    def test_scores_each_rule_once(self, monkeypatch, group):
        rules = list(self.TAUS)
        table = simulate_table(SimParams(**DEFAULTS, periods=50, master_seed=SEED), rules)
        monkeypatch.setattr(sim, "_GROUP_PACKETS", group)
        scored = []
        error_columns = agemon.summary.PeriodTable.error_columns

        # thresholds are scored in chunks: count the thresholds, not the calls
        def counted(self, chunk=slice(None)):
            scored.extend(self.taus[chunk].tolist())
            return error_columns(self, chunk)

        monkeypatch.setattr(agemon.summary.PeriodTable, "error_columns", counted)
        summarize(table)
        assert scored == rules

    @settings(max_examples=40, deadline=None)
    @given(
        k=st.integers(2, 40),
        n=st.integers(1, 300),
        resamples=st.integers(1, 30),
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(1e-3, 1e6),
    )
    # the age row and 32 rule rows, the most the library once stacked
    @example(k=33, n=300, resamples=30, seed=SEED, scale=1.0)
    def test_bootstrap_equals_fancy_index_loop(self, k, n, resamples, seed, scale):
        # the reference bootstrap against the per-resample loop that its
        # batched gather-and-reduce replaced. It always had the age row and
        # at least one rule row: with one row, numerators[:, idx] is
        # C-contiguous and its sum would be pairwise
        data = np.random.default_rng(seed)
        numerators = data.lognormal(sigma=3.0, size=(k, n)) * scale
        lengths = data.lognormal(sigma=2.0, size=n)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=reference.BOOTSTRAP_KEY))
        stats = np.empty((resamples, k))
        for b in range(resamples):
            idx = rng.integers(0, n, size=n)
            stats[b] = numerators[:, idx].sum(axis=1) / lengths[idx].sum()
        tail = 100.0 * (1.0 - 0.9) / 2.0
        lo, hi = np.percentile(stats, [tail, 100.0 - tail], axis=0)
        expected = (hi - lo) / 2.0
        # one resample per batch, batches that do not divide `resamples`
        # (from 3 on), and one batch of every resample
        for batch in (1, resamples // 2 + 1, resamples):
            with mock.patch.multiple(reference, _BOOTSTRAP_CELLS=batch * n * k, _BOOTSTRAP_MIN_SUMS=1):
                got = bootstrap_halfwidths(seed, numerators, lengths, resamples, 0.9)
            assert got.tobytes() == expected.tobytes(), batch
        assert bootstrap_halfwidths(seed, numerators, lengths, resamples, 0.9).tobytes() == expected.tobytes()


def test_bootstrap_key_is_no_simulation_stream():
    # the reference bootstrap's index stream: a run of fewer than 2**32
    # periods has blocks [0, ceil(2**32 / PERIODS_PER_BLOCK))
    blocks = range(-(-2**32 // sim.PERIODS_PER_BLOCK))
    kinds = (sim._CLOCKS, sim._FIRST_SERVICES, sim._GAPS, sim._COUNTS, sim._SERVICES)
    block, kind = reference.BOOTSTRAP_KEY
    assert block not in blocks or kind not in kinds
    # and its draws are none of the first, a middle or the last block's
    first = np.random.default_rng(np.random.SeedSequence(SEED, spawn_key=reference.BOOTSTRAP_KEY)).integers(0, 2**62, 4)
    for b in (0, 0x0B00, blocks[-1]):
        for k in kinds:
            assert not np.array_equal(sim._stream(SEED, b, k).integers(0, 2**62, 4), first), (b, k)


class TestRatioHalfwidth:
    def test_equals_the_textbook_formula(self, small_table, summary):
        # z sd(a - R L) / (mean(L) sqrt(n)) over the periods with measured
        # time, in plain numpy; the library sums over every period instead
        measured = small_table.lengths > 0
        lengths = small_table.lengths[measured]
        fp, fn, reacq = tau_columns(small_table, MAP_TAU)
        z = 1.959963984540054
        for numerator, got in [
            (small_table.areas, summary["aoi_ci"]),
            (fp + fn, summary["err_ci"]),
            (fp - reacq + fn, summary["err_detection_ci"]),
        ]:
            a = numerator[measured]
            residual = a - a.sum() / lengths.sum() * lengths
            want = z * np.std(residual, ddof=1) / (lengths.mean() * math.sqrt(lengths.size))
            assert got == pytest.approx(want, rel=1e-12)

    def test_every_halfwidth_is_a_95_percent_one(self):
        # the constant the library keeps, so that it imports no statistics
        assert float.hex(agemon.summary._Z) == float.hex(NormalDist().inv_cdf(0.975))

    @pytest.mark.parametrize("conditioned", [False, True], ids=["faithful", "conditioned"])
    def test_block_rows_equal_each_row_alone(self, conditioned):
        # at nu = mu half the faithful periods deliver nothing; at this seed
        # the first four do, so the block's rows start with empty periods
        params = SimParams(lam=1.0, mu=1.0, nu=1.0, r=5.0, periods=200, master_seed=5,
                           require_delivery=conditioned)
        table = simulate_table(params, [0.0, 0.5, 2.0, math.inf])
        assert (table.lengths[:4] == 0).all() != conditioned
        fp, fn, reacq = table.error_columns()
        block = np.vstack((table.areas, table.region_times, fp + fn, fp - reacq + fn))
        measured, z = int(np.count_nonzero(table.lengths)), 1.959963984540054
        got = _ratio_halfwidth(block, table, measured, z)
        assert got.shape == (block.shape[0],)
        for row, halfwidth in zip(block, got.tolist()):
            # one row alone, as a scalar: its sum, its residual's dot product
            residual = row - (float(row.sum()) / table.measured_time) * table.lengths
            alone = z * math.sqrt(float(residual @ residual) * measured / (measured - 1)) / table.measured_time
            assert float.hex(halfwidth) == float.hex(alone)

    def test_fewer_than_two_measured_periods_fail_with_the_count(self):
        # the first period delivers nothing, so only the second is measured:
        # its residual is exactly 0 and a half-width would claim certainty
        lost = (5.0, 1.0, [0.0], [])
        delivered = (5.0, 1.0, [0.0, 1.0, 2.0], [0.5, 1.5, 2.5])
        table = period_table(manual_timeline([lost, delivered]), [MAP_TAU])
        with pytest.raises(EmptyTimelineError, match=r"^1 of 2 periods have measured time .* at least 2$"):
            summarize(table)
        [s] = summarize(period_table(manual_timeline([delivered, lost, delivered]), [MAP_TAU]))
        assert 0 < s["aoi_ci"] < math.inf

    def test_outage_fraction_halfwidth_covers_its_exact_value(self):
        # The outage fraction, sum(r3 time) / sum(length), is a ratio with an
        # exact value, r nu / (1 + r nu) = 1/11 at the defaults. Its 95%
        # half-width covers it at 191 of seeds 0-199 (2000 periods each); the
        # band [0.90, 0.99] reaches 3.2 binomial sd below the nominal 190 and
        # 2.6 above it
        exact = DEFAULTS["r"] * DEFAULTS["nu"] / (1.0 + DEFAULTS["r"] * DEFAULTS["nu"])
        covered = 0
        for seed in range(200):
            table = simulate_table(SimParams(**DEFAULTS, periods=2000, master_seed=seed), ())
            outage = table.region_times[2]
            halfwidth = _ratio_halfwidth(outage, table, int(np.count_nonzero(table.lengths)), 1.959963984540054)
            covered += abs(outage.sum() / table.measured_time - exact) <= halfwidth
        assert 180 <= covered <= 198


def dyadic(low, high):
    """Multiples of 1/8: sums and trapezoids of a few of them are exact."""
    return st.integers(low, high).map(lambda k: k / 8)


@st.composite
def dyadic_timeline_specs(draw):
    """manual_timeline specs with dyadic times; deliveries follow the FCFS
    recursion, and any period may deliver nothing."""
    specs = []
    for _ in range(draw(st.integers(1, 4))):
        gens = np.cumsum([0.0] + draw(st.lists(dyadic(1, 16), max_size=5)))
        if draw(st.booleans()):
            arrivals, last = [], 0.0
            for g in gens:
                last = max(last, g) + draw(dyadic(1, 16))
                arrivals.append(last)
            T = arrivals[-1] + draw(dyadic(1, 16))
        else:
            arrivals, T = [], draw(dyadic(1, 16))
        specs.append((T, draw(dyadic(0, 64)), gens.tolist(), arrivals))
    assume(any(spec[3] for spec in specs))
    return specs


class TestPeriodTableProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        lam=st.floats(0.05, 0.95),
        nu=st.floats(0.005, 0.5),
        r=st.floats(0.0, 30.0),
        periods=st.integers(1, 40),
        seed=st.integers(0, 2**64 - 1),
        tau=st.floats(0.0, 40.0),
    )
    def test_column_sums_reproduce_whole_run(self, lam, nu, r, periods, seed, tau):
        tl = simulate(SimParams(lam=lam, mu=1.0, nu=nu, r=r, periods=periods, master_seed=seed))
        assume(tl.arrival_times.size > 0)
        table = period_table(tl, [tau])
        span = table.measured_time
        assert table.lengths.sum() == pytest.approx(span, rel=1e-12)
        assert sum(table.region_times.sum(axis=1).tolist()) == pytest.approx(span, rel=1e-12)
        # summarize needs two measured periods for its half-widths
        if np.count_nonzero(table.lengths) < 2:
            with pytest.raises(EmptyTimelineError, match="a half-width needs at least 2$"):
                summarize(table)
        else:
            assert_totals_are_column_sums(table, tau)

    @settings(max_examples=60, deadline=None)
    @given(specs=dyadic_timeline_specs(), data=st.data())
    def test_age_columns_split_invariant(self, specs, data):
        # the production-path counterpart of acceptance criterion 8(b): a
        # delivery that carries the previous delivery's generation time adds
        # a breakpoint to the age without resetting it
        delivering = [i for i, spec in enumerate(specs) if spec[3]]
        p = data.draw(st.sampled_from(delivering))
        T, r, gens, arrivals = specs[p]
        k = data.draw(st.integers(0, len(arrivals) - 1))
        following = arrivals[k + 1] if k + 1 < len(arrivals) else T
        split = list(specs)
        split[p] = (
            T, r,
            gens[: k + 1] + [gens[k]] + gens[k + 1:],
            arrivals[: k + 1] + [(arrivals[k] + following) / 2] + arrivals[k + 1:],
        )
        base_timeline, more_timeline = manual_timeline(specs), manual_timeline(split)
        base, more = period_table(base_timeline, [0.0]), period_table(more_timeline, [0.0])
        assert more_timeline.arrival_times.size == base_timeline.arrival_times.size + 1
        assert more.aoi == base.aoi
        assert np.array_equal(more.areas, base.areas)
        assert np.array_equal(more.region_areas, base.region_areas)
        # and so the region averages: one period is too few for summarize
        assert np.array_equal(more.region_times, base.region_times)
