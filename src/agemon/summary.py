"""One-stop empirical summary of a timeline: the per-period statistics
table, age averages, detection error breakdown, and bootstrap confidence
half-widths.

The instantaneous age is the time since the generation of the freshest
delivered update: a sawtooth that climbs with slope 1 and drops to the
system time of each update on its arrival. Every age metric integrates that
piecewise-linear trajectory in closed form per segment with `_age_area`;
there is no time discretization anywhere.

Every reported metric is a column sum or a ratio of column sums of the
table. Periods are the iid unit of the model, so resampling is over
per-period (area, mismatch, length) triples rather than raw time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .detector import DecisionRule, ErrorBreakdown
from .errors import EmptyTimelineError, ParameterError
from .sim import SimParams, Timeline


def _age_area(length, start_age):
    """Integral of the slope-1 age over `length` seconds from `start_age`:
    the trapezoid length * (start_age + length/2)."""
    return length * (start_age + 0.5 * length)


def _interval_integrals(bounds, whole, part, starts, ends) -> np.ndarray:
    """Integrals of a piecewise function over each [starts[i], ends[i]).

    Piece j spans [bounds[j], bounds[j + 1]); whole[j] is its integral and
    part(j, lo, hi) its integral over [lo, hi) inside it. Intervals must lie
    inside [bounds[0], bounds[-1]]; an empty one on a breakpoint gets a
    rounding residue, not 0. Whole pieces come from a prefix sum.
    """
    prefix = np.concatenate(([0.0], np.cumsum(whole)))
    last = whole.size - 1
    j0 = np.clip(np.searchsorted(bounds, starts, side="right") - 1, 0, last)
    j1 = np.clip(np.searchsorted(bounds, ends, side="left") - 1, 0, last)
    return np.where(
        j0 == j1,
        part(j0, starts, ends),
        part(j0, starts, bounds[j0 + 1]) + (prefix[j1] - prefix[j0 + 1]) + part(j1, bounds[j1], ends),
    )


@dataclass(frozen=True)
class RegionAverages:
    """Time-averaged age and total duration per region of the period cycle:

    r1: from the first post-recovery generation until its delivery (for
        periods with no delivery, the whole pre-failure span),
    r2: normal operation, from the first delivery until the failure,
    r3: the outage, from the failure until recovery completes.

    Averages are time-weighted across the whole run; a region nobody entered
    has zero time and a NaN average.
    """

    avg_r1: float
    avg_r2: float
    avg_r3: float
    time_r1: float
    time_r2: float
    time_r3: float

    @property
    def total_time(self) -> float:
        return self.time_r1 + self.time_r2 + self.time_r3


@dataclass(frozen=True, eq=False)
class PeriodTable:
    """Per-period statistics over the measured span [first arrival, end of run].

    Period p's slice of the span is [edges[0, p], edges[3, p]), and its
    regions (see RegionAverages) are [edges[k, p], edges[k + 1, p]) for
    k = 0, 1, 2; slices before the first arrival are empty. Columns hold
    each slice's length and age area and each region's time and age area
    (0 when empty). The true state is failed exactly on r3, so
    region_times[2] is also the failed time. last_arrivals holds the last
    arrival at or before each period's start and failure (-inf if none).
    `error` and `mismatch` add the columns of one decision rule.
    """

    params: SimParams
    measured_time: float
    age_area: float
    regions: RegionAverages
    lengths: np.ndarray
    areas: np.ndarray
    region_times: np.ndarray
    region_areas: np.ndarray
    edges: np.ndarray
    last_arrivals: np.ndarray
    bounds: np.ndarray

    @property
    def aoi(self) -> float:
        return self.age_area / self.measured_time

    def _failed_whole(self, tau: float) -> np.ndarray:
        # the estimate is FAILED on the tail of each arrival gap beyond tau
        return np.clip(np.diff(self.bounds) - tau, 0.0, None)

    def _false_negatives(self, tau: float) -> np.ndarray:
        # r3 holds no arrival: the estimate reads WORKING until last arrival + tau
        missed = np.minimum(self.edges[3], self.last_arrivals[1] + tau) - self.edges[2]
        return np.where(self.region_times[2] > 0, np.clip(missed, 0.0, None), 0.0)

    def error(self, rule: DecisionRule) -> ErrorBreakdown:
        """Exact mismatch between the rule's estimate and the true state."""
        measured = self.measured_time
        failed = float(self.region_times[2].sum())
        if rule.degenerate:
            return ErrorBreakdown(
                error_rate=failed / measured,
                false_positive_time=0.0,
                false_negative_time=failed,
                measured_time=measured,
                reacquisition_fp_time=0.0,
            )
        fn = float(self._false_negatives(rule.tau).sum())
        fp = max(float(self._failed_whole(rule.tau).sum()) - (failed - fn), 0.0)
        # r1 holds no arrival either: the estimate flips once, at last arrival + tau
        flip = np.maximum(self.edges[0], self.last_arrivals[0] + rule.tau)
        reacq = np.where(self.region_times[0] > 0, np.clip(self.edges[1] - flip, 0.0, None), 0.0)
        return ErrorBreakdown(
            error_rate=(fp + fn) / measured,
            false_positive_time=fp,
            false_negative_time=fn,
            measured_time=measured,
            reacquisition_fp_time=float(reacq.sum()),
        )

    def mismatch(self, rule: DecisionRule) -> np.ndarray:
        """Mismatch time of each slice; the entries sum to fp + fn time."""
        failed = self.region_times[2]
        if rule.degenerate:
            return failed
        tau, bounds = rule.tau, self.bounds

        def part(j, lo, hi):
            return np.clip(np.minimum(hi, bounds[j + 1]) - np.maximum(lo, bounds[j] + tau), 0.0, None)

        est_failed = _interval_integrals(
            bounds, self._failed_whole(tau), part, self.edges[0], self.edges[3]
        )
        fn = self._false_negatives(tau)
        return np.clip(est_failed - (failed - fn), 0.0, None) + fn


def period_table(timeline: Timeline) -> PeriodTable:
    """The rule-independent columns of a timeline's period table. Ages are
    integrated from reset ages, not absolute generation times, which stays
    well conditioned on long runs."""
    arrivals = timeline.arrival_times
    if arrivals.size == 0:
        raise EmptyTimelineError("timeline has no deliveries; the age is undefined")
    # the age is undefined before the first arrival
    m0, m1 = float(arrivals[0]), timeline.end_time
    if not m1 > m0:
        raise EmptyTimelineError("zero-length measured span has no average")
    ages = arrivals - timeline.arrival_generations
    bounds = np.append(arrivals, m1)
    whole = _age_area(np.diff(bounds), ages)

    def part(j, lo, hi):
        return _age_area(hi - lo, ages[j] + (lo - bounds[j]))

    # r1 ends at the first delivery, or at the failure when nothing was delivered
    counts = timeline.delivered_counts
    first = arrivals[np.minimum(np.cumsum(counts) - counts, arrivals.size - 1)]
    cut = np.where(counts > 0, first, timeline.failure_times)
    edges = np.clip(
        np.vstack((timeline.start_times, cut, timeline.failure_times, timeline.recovery_ends)), m0, m1
    )
    n = edges.shape[1]
    # one call for the slices and the three regions
    areas = _interval_integrals(
        bounds, whole, part,
        np.concatenate((edges[0], edges[:3].ravel())),
        np.concatenate((edges[3], edges[1:].ravel())),
    )
    region_times = edges[1:] - edges[:3]
    keep = region_times > 0
    region_areas = np.where(keep, areas[n:].reshape(3, n), 0.0)
    # totals over non-empty regions only: summing the zeros too would
    # regroup numpy's pairwise summation and change the rounding
    times = [float(np.sum(t[k])) for t, k in zip(region_times, keep)]
    sums = [float(np.sum(a[k])) for a, k in zip(region_areas, keep)]
    last = np.searchsorted(
        arrivals, np.vstack((timeline.start_times, timeline.failure_times)), side="right"
    ) - 1
    return PeriodTable(
        params=timeline.params,
        measured_time=m1 - m0,
        age_area=float(np.sum(whole)),
        regions=RegionAverages(*(a / t if t > 0 else float("nan") for a, t in zip(sums, times)), *times),
        lengths=edges[3] - edges[0],
        areas=areas[:n],
        region_times=region_times,
        region_areas=region_areas,
        edges=edges,
        last_arrivals=np.where(last >= 0, arrivals[np.maximum(last, 0)], -np.inf),
        bounds=bounds,
    )


@dataclass(frozen=True)
class MetricsSummary:
    aoi_time_average: float
    regions: RegionAverages
    error: ErrorBreakdown
    aoi_ci_halfwidth: float
    error_ci_halfwidth: float
    measured_time: float
    periods: int
    seed: int
    unstable_queue: bool

    def to_dict(self) -> dict:
        return {
            "aoi_time_average": self.aoi_time_average,
            "aoi_ci_halfwidth": self.aoi_ci_halfwidth,
            "avg_r1": self.regions.avg_r1,
            "avg_r2": self.regions.avg_r2,
            "avg_r3": self.regions.avg_r3,
            "time_r1": self.regions.time_r1,
            "time_r2": self.regions.time_r2,
            "time_r3": self.regions.time_r3,
            "error_rate": self.error.error_rate,
            "detection_error_rate": self.error.detection_error_rate,
            "error_ci_halfwidth": self.error_ci_halfwidth,
            "fp_rate": self.error.fp_rate,
            "fn_rate": self.error.fn_rate,
            "reacquisition_fp_time": self.error.reacquisition_fp_time,
            "measured_time": self.measured_time,
            "periods": self.periods,
            "seed": self.seed,
            "unstable_queue": self.unstable_queue,
        }


# rules stacked into one bootstrap pass; bounds the (rules + 1, periods)
# buffers a long threshold sweep would otherwise allocate at once
RULES_PER_PASS = 32
# checked before anything is simulated; at the cap one pass's statistics
# array, (RULES_PER_PASS + 1) floats per resample, takes 264 MB
MAX_RESAMPLES = 10**6


# A batch of B resamples gathers (n periods, B, k rows) floats, at most
# _BOOTSTRAP_CELLS of them (2 MB) unless that leaves fewer than
# _BOOTSTRAP_MIN_SUMS running sums, B * k: summing the periods costs one
# numpy inner loop per period, which is slow when it adds only a few
# columns. Neither is part of the contract: any batch size gives the same
# half-widths.
_BOOTSTRAP_CELLS = 2**18
_BOOTSTRAP_MIN_SUMS = 16


def _bootstrap_halfwidths(seed: int, numerators, lengths, resamples: int, confidence: float):
    """Half-widths of the ratios numerators[i].sum() / lengths.sum() over
    period resamples. Every call replays the same index stream, so a row's
    half-width does not depend on which rows are stacked with it. Resamples
    are gathered in batches; the batch size changes no bit."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0x0B00, 0)))
    k, n = numerators.shape
    cols = np.ascontiguousarray(numerators.T)
    batch = max(-(-_BOOTSTRAP_MIN_SUMS // k), _BOOTSTRAP_CELLS // (n * k))
    stats = np.empty((resamples, k))
    for start in range(0, resamples, batch):
        # each index takes the generator's next 32-bit draw, so one (B, n)
        # call draws what B calls of n indices would
        idx = rng.integers(0, n, size=(min(batch, resamples - start), n))
        # Reducing the outer axis of the (n, B, k) gather adds one period
        # after another, the order numpy used on the F-ordered
        # numerators[:, idx] these half-widths were first computed from
        # (F-ordered because there are always two or more rows; one row
        # would be summed pairwise). Each denominator row is contiguous, so
        # it keeps numpy's pairwise sum of one resample's lengths.
        totals = np.take(cols, idx.T, axis=0).sum(axis=0)
        stats[start:start + idx.shape[0]] = totals / np.take(lengths, idx).sum(axis=1)[:, None]
    tail = 100.0 * (1.0 - confidence) / 2.0
    lo, hi = np.percentile(stats, [tail, 100.0 - tail], axis=0)
    return (hi - lo) / 2.0


def check_resamples(resamples: int) -> None:
    """Reject a bootstrap size outside [0, MAX_RESAMPLES]; callers run this
    before any work."""
    if resamples < 0:
        raise ParameterError(f"resamples must be >= 0, got {resamples}")
    if resamples > MAX_RESAMPLES:
        raise ParameterError(f"resamples must be <= {MAX_RESAMPLES}, got {resamples}")


def summarize(
    table: PeriodTable,
    rule: DecisionRule | None = None,
    resamples: int = 1000,
    confidence: float = 0.95,
) -> MetricsSummary:
    """Empirical metrics plus bootstrap half-widths at the given confidence.

    The rule defaults to the optimal threshold for the run's own
    parameters. resamples=0 skips the bootstrap (half-widths become NaN);
    a count outside [0, MAX_RESAMPLES] is an error.
    The bootstrap stream is derived from the master seed, so summaries are
    reproducible.
    """
    params = table.params
    if rule is None:
        params.require_stable_queue()
        rule = DecisionRule.map_rule(params.lam, params.nu, params.r)
    return summarize_rules(table, [rule], resamples, confidence)[0]


def summarize_rules(
    table: PeriodTable,
    rules: list[DecisionRule],
    resamples: int = 1000,
    confidence: float = 0.95,
) -> list[MetricsSummary]:
    """`summarize` of each rule on one table, equal to it bit for bit.

    All rules share the resample indices that `summarize` draws, so one
    bootstrap pass covers the age row and up to RULES_PER_PASS mismatch rows.
    """
    if not 0 < confidence < 1:
        raise ParameterError("confidence must be in (0, 1)")
    check_resamples(resamples)
    params = table.params
    aoi_hw = float("nan")
    err_hws = [float("nan")] * len(rules)
    if resamples > 0:
        for start in range(0, len(rules), RULES_PER_PASS):
            chunk = rules[start:start + RULES_PER_PASS]
            numerators = np.vstack([table.areas, *(table.mismatch(rule) for rule in chunk)])
            hws = _bootstrap_halfwidths(params.master_seed, numerators, table.lengths, resamples, confidence)
            aoi_hw = float(hws[0])
            err_hws[start:start + len(chunk)] = hws[1:].tolist()
    return [
        MetricsSummary(
            aoi_time_average=table.aoi,
            regions=table.regions,
            error=table.error(rule),
            aoi_ci_halfwidth=aoi_hw,
            error_ci_halfwidth=err_hw,
            measured_time=table.measured_time,
            periods=params.periods,
            seed=params.master_seed,
            unstable_queue=params.unstable_queue,
        )
        for rule, err_hw in zip(rules, err_hws)
    ]
