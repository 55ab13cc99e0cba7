import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import agemon.summary
from agemon import DecisionRule, ParameterError, SimParams, period_table, simulate, summarize
from agemon.summary import _bootstrap_halfwidths, summarize_rules
from conftest import DEFAULTS, SEED, manual_timeline

# float.hex of every float in summarize(...).to_dict() at 300 periods and 50
# resamples. The metric paths reproduced the earlier per-function paths bit
# for bit; these values were recorded once more when the stream contract
# changed to per-block streams, and every later change must reproduce them
GOLDEN = {
    20.0: {
        "aoi_time_average": "0x1.1fc125ced74d2p+2",
        "aoi_ci_halfwidth": "0x1.b66c4cd215240p-4",
        "avg_r1": "0x1.8b73a67dfceaep+4",
        "avg_r2": "0x1.b61e70dc3d349p+1",
        "avg_r3": "0x1.b86fdeeeaf682p+3",
        "time_r1": "0x1.36f942a5f74e5p+8",
        "time_r2": "0x1.c27d2e954ba51p+15",
        "time_r3": "0x1.7700000000000p+12",
        "error_rate": "0x1.7590fa0fd51f3p-5",
        "detection_error_rate": "0x1.4dbec7dedbff8p-5",
        "error_ci_halfwidth": "0x1.08d058a6cebc0p-8",
        "fp_rate": "0x1.8b6c779e8868cp-7",
        "fn_rate": "0x1.12b5dc2833050p-5",
        "reacquisition_fp_time": "0x1.36f942a5f74e5p+8",
        "measured_time": "0x1.f3cb211a9793bp+15",
    },
    # r = 5 <= tau: the optimal rule is degenerate
    5.0: {
        "aoi_time_average": "0x1.c2ff063389bc8p+1",
        "aoi_ci_halfwidth": "0x1.4680535022700p-5",
        "avg_r1": "0x1.35e1293c448d2p+3",
        "avg_r2": "0x1.b61e70dc3d369p+1",
        "avg_r3": "0x1.87462443c5353p+2",
        "time_r1": "0x1.36f942a5f74adp+8",
        "time_r2": "0x1.c27d2e954ba52p+15",
        "time_r3": "0x1.7700000000000p+10",
        "error_rate": "0x1.9d39c18a26ecep-6",
        "detection_error_rate": "0x1.9d39c18a26ecep-6",
        "error_ci_halfwidth": "0x1.5a06ee126f1a4p-9",
        "fp_rate": "0x0.0p+0",
        "fn_rate": "0x1.9d39c18a26ecep-6",
        "reacquisition_fp_time": "0x0.0p+0",
        "measured_time": "0x1.d0a3211a9793bp+15",
    },
}


@pytest.fixture(scope="module")
def small_table(small_timeline):
    return period_table(small_timeline)


@pytest.fixture(scope="module")
def summary(small_table):
    return summarize(small_table, resamples=300)


class TestSummarize:
    def test_matches_direct_metrics(self, small_table, summary):
        assert summary.aoi_time_average == small_table.aoi
        rule = DecisionRule.map_rule(DEFAULTS["lam"], DEFAULTS["nu"], DEFAULTS["r"])
        direct = small_table.error(rule)
        assert summary.error.error_rate == direct.error_rate
        assert summary.measured_time == direct.measured_time
        assert summary.periods == 2000
        assert summary.seed == SEED

    def test_confidence_intervals_positive_and_reproducible(self, small_table, summary):
        assert summary.aoi_ci_halfwidth > 0
        assert summary.error_ci_halfwidth > 0
        again = summarize(small_table, resamples=300)
        assert again.aoi_ci_halfwidth == summary.aoi_ci_halfwidth
        assert again.error_ci_halfwidth == summary.error_ci_halfwidth

    def test_interval_contains_truth_at_this_seed(self, small_timeline, summary):
        # not a guarantee in general, but a sane-width check at 2000 periods
        assert summary.aoi_ci_halfwidth < 0.5
        assert abs(summary.aoi_time_average - 4.5045) < 3 * summary.aoi_ci_halfwidth

    def test_skipping_bootstrap(self, small_table):
        s = summarize(small_table, resamples=0)
        assert math.isnan(s.aoi_ci_halfwidth)
        assert math.isnan(s.error_ci_halfwidth)

    def test_confidence_domain(self, small_table):
        with pytest.raises(ParameterError):
            summarize(small_table, resamples=10, confidence=1.5)

    def test_to_dict_keys(self, summary):
        d = summary.to_dict()
        for key in ("aoi_time_average", "error_rate", "detection_error_rate",
                    "avg_r1", "avg_r2", "avg_r3", "fp_rate", "fn_rate", "seed"):
            assert key in d

    def test_explicit_rule_on_unstable_queue(self):
        tl = simulate(SimParams(lam=1.2, mu=1.0, nu=0.05, r=5.0, periods=50, master_seed=5))
        with pytest.raises(ParameterError):
            summarize(period_table(tl))  # the optimal rule needs rho < 1
        s = summarize(period_table(tl), rule=DecisionRule.with_threshold(3.0, 5.0), resamples=0)
        assert s.unstable_queue


class TestPerPeriodStatistics:
    def test_sums_reproduce_whole_run(self, small_timeline, small_table):
        rule = DecisionRule.map_rule(DEFAULTS["lam"], DEFAULTS["nu"], DEFAULTS["r"])
        areas, mismatch, lengths = small_table.areas, small_table.mismatch(rule), small_table.lengths
        span = small_timeline.end_time - small_timeline.arrival_times[0]
        assert lengths.sum() == pytest.approx(span, rel=1e-12)
        assert areas.sum() == pytest.approx(small_table.age_area, rel=1e-9)
        direct = small_table.error(rule)
        assert mismatch.sum() == pytest.approx(
            direct.false_positive_time + direct.false_negative_time, rel=1e-9
        )
        assert np.all(lengths >= 0)
        assert np.all(areas >= 0)


@pytest.mark.parametrize("r", sorted(GOLDEN))
def test_summary_bit_identical_to_recorded(r):
    tl = simulate(SimParams(**{**DEFAULTS, "r": r}, periods=300, master_seed=SEED))
    record = summarize(period_table(tl), resamples=50).to_dict()
    floats = {key: float.hex(value) for key, value in record.items() if isinstance(value, float)}
    assert floats == GOLDEN[r]


def hex_fields(summary):
    """Every field of a MetricsSummary, floats as float.hex (NaN included)."""
    return [float.hex(v) if isinstance(v, float) else v for v in dataclasses.astuple(summary)]


class TestSummarizeRules:
    # 0, below, at and above the MAP threshold (~9.158), then r itself and
    # one above it (degenerate), then one more, so passes mix both kinds
    TAUS = (0.0, 4.0, 9.158362006503506, 15.0, 20.0, 31.5, 7.25)

    @pytest.mark.parametrize("per_pass", [1, 3, agemon.summary.RULES_PER_PASS])
    @pytest.mark.parametrize("periods,resamples", [(300, 40), (1, 10), (300, 0)])
    def test_equals_summarize_per_rule(self, monkeypatch, per_pass, periods, resamples):
        table = period_table(simulate(SimParams(**DEFAULTS, periods=periods, master_seed=SEED)))
        rules = [DecisionRule.with_threshold(tau, DEFAULTS["r"]) for tau in self.TAUS]
        expected = [hex_fields(summarize(table, rule, resamples=resamples)) for rule in rules]
        monkeypatch.setattr(agemon.summary, "RULES_PER_PASS", per_pass)
        batched = summarize_rules(table, rules, resamples=resamples)
        assert [hex_fields(s) for s in batched] == expected
        if resamples == 0:
            assert all(math.isnan(s.aoi_ci_halfwidth) and math.isnan(s.error_ci_halfwidth) for s in batched)

    @settings(max_examples=40, deadline=None)
    @given(
        k=st.integers(2, 40),
        n=st.integers(1, 300),
        resamples=st.integers(1, 30),
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(1e-3, 1e6),
    )
    # a full pass: the age row and RULES_PER_PASS rule rows
    @example(k=agemon.summary.RULES_PER_PASS + 1, n=300, resamples=30, seed=SEED, scale=1.0)
    def test_bootstrap_equals_fancy_index_loop(self, k, n, resamples, seed, scale):
        # the per-resample loop that the batched gather-and-reduce replaced.
        # It always had the age row and at least one rule row: with one row,
        # numerators[:, idx] is C-contiguous and its sum would be pairwise
        data = np.random.default_rng(seed)
        numerators = data.lognormal(sigma=3.0, size=(k, n)) * scale
        lengths = data.lognormal(sigma=2.0, size=n)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0x0B00, 0)))
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
            with mock.patch.multiple(agemon.summary, _BOOTSTRAP_CELLS=batch * n * k, _BOOTSTRAP_MIN_SUMS=1):
                got = _bootstrap_halfwidths(seed, numerators, lengths, resamples, 0.9)
            assert got.tobytes() == expected.tobytes(), batch
        assert _bootstrap_halfwidths(seed, numerators, lengths, resamples, 0.9).tobytes() == expected.tobytes()


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
        assume(tl.delivery_count > 0)
        table = period_table(tl)
        rule = DecisionRule.with_threshold(tau, r)
        error = table.error(rule)
        span = table.measured_time
        assert table.lengths.sum() == pytest.approx(span, rel=1e-12)
        assert table.areas.sum() == pytest.approx(table.aoi * span, rel=1e-12)
        assert table.mismatch(rule).sum() == pytest.approx(
            error.false_positive_time + error.false_negative_time, rel=1e-12
        )
        assert table.regions.total_time == pytest.approx(span, rel=1e-12)

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
        base, more = period_table(manual_timeline(specs)), period_table(manual_timeline(split))
        assert more.bounds.size == base.bounds.size + 1
        assert more.age_area == base.age_area
        assert more.aoi == base.aoi
        assert np.array_equal(more.areas, base.areas)
        assert np.array_equal(more.region_areas, base.region_areas)
        assert np.array_equal(
            dataclasses.astuple(more.regions), dataclasses.astuple(base.regions), equal_nan=True
        )
