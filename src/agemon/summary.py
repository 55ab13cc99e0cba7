"""One-stop empirical summary of a simulation: `simulate_table`, its
per-period statistics table, and `summarize`, which reads a run's
empirical output columns off it: the age averages, the detection error
rates and the regenerative confidence half-widths.

The instantaneous age is the time since the generation of the freshest
delivered update: a sawtooth that climbs with slope 1 and drops to the
system time of each update on its arrival. Every age metric integrates that
piecewise-linear trajectory in closed form per segment with `_age_area`;
there is no time discretization anywhere.

A run's packets are stored period after period, each period's deliveries
first, so cumsum(counts) locates each period's own arrival gaps: a
per-period integral is one piece from the last earlier arrival plus one
`np.add.reduceat` of its own gaps. The table is built in two parts:
`_run_rows` reads each period's first and last arrival, its age at the
last one, its r2 area and, for each finite threshold, the sum of its gaps'
excess over it off a run's packets where the run loop leaves them;
`_finish` clips the edges and adds the r1 and r3 trapezoids in
O(periods). `simulate_table` takes its thresholds up front and reads each
simulated run as soon as it is queued, so no packet outlives its run. The
per-delivery terms are built in place over groups of whole periods with a
bounded number of packets, so no stage holds a temporary that spans the run.

Every reported number is a column sum of the table or a ratio of such
sums: the mean age sums the slice areas, the region averages sum the region
columns, and a threshold's error rates sum its per-slice columns from
`PeriodTable.error_columns`. Periods are the iid unit of the model (its
renewal cycle), so each half-width is that of a ratio estimator over the
same per-period (area, mismatch, length) columns rather than raw time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import sim
from .errors import EmptyTimelineError, ParameterError, SimulationLimitError, check_params
from .sim import SimParams

# Per-period cells of a chunk of thresholds that `summarize` scores in one
# call, bounding its (3, thresholds, periods) columns; any value, same bits.
_SCORE_CELLS = 2**16


def _age_area(length, start_age):
    """Integral of the slope-1 age over `length` seconds from `start_age`:
    the trapezoid length * (start_age + length/2)."""
    return length * (start_age + 0.5 * length)


@dataclass(frozen=True, eq=False)
class PeriodTable:
    """Per-period statistics over the measured span [first arrival, end of run].

    Period p's slice of the span is [edges[0, p], edges[3, p]), and its
    regions are [edges[k, p], edges[k + 1, p]) for k = 0, 1, 2:

    r1: from the first post-recovery generation until its delivery (for
        periods with no delivery, the whole pre-failure span),
    r2: normal operation, from the first delivery until the failure,
    r3: the outage, from the failure until recovery completes.

    Slices before the first arrival are empty. Columns hold each slice's
    length and age area and each region's time and age area (0 when
    empty). The true state is failed exactly on r3, so region_times[2] is
    also the failed time.

    Period p delivered counts[p] updates. last_arrivals holds each
    period's last arrival from an earlier period and its last arrival of
    all (the same when it delivered nothing), -inf if none. The table was
    built for the thresholds `taus`, and hinges[i, p] is period p's sum of
    max(gap - tau, 0) over its gaps for the i-th finite one of them: a gap
    runs from a delivery to the next one in its period, a period's last to
    its slice end edges[3, p]. `error_columns` scores the thresholds on
    them.
    """

    params: SimParams
    measured_time: float
    lengths: np.ndarray
    areas: np.ndarray
    region_times: np.ndarray
    region_areas: np.ndarray
    edges: np.ndarray
    last_arrivals: np.ndarray
    counts: np.ndarray
    taus: np.ndarray
    hinges: np.ndarray

    @property
    def aoi(self) -> float:
        return float(self.areas.sum()) / self.measured_time

    def error_columns(self, chunk: slice = slice(None)) -> np.ndarray:
        """Each slice's exact false-positive, false-negative and
        reacquisition false-positive time under the rule that declares
        FAILED while z > tau, for each tau of taus[chunk], as the rows fp,
        fn and reacq of a (3, thresholds, periods) array. Their sum over a
        slice, fp + fn, is its mismatch time. tau = inf is the rule that
        always declares WORKING.

        A false positive declares FAILED while the sensor works, a false
        negative the other way around. The reacquisition false positives
        are the part of fp inside r1, between a period's first generation
        and its first delivery: right after a recovery z is still draining
        the outage, so a false positive there is structural whenever
        tau < r. The detection-scope error, fp - reacq + fn, scores those
        spans as correct, matching the scope of the closed-form error rate.

        Each threshold's columns are, bit for bit, those it has in a table
        built for it alone, whatever the chunk.
        """
        taus = self.taus[chunk]
        failed = self.region_times[2]
        # tau = inf is exact, where the general path would meet -inf + inf
        columns = np.zeros((3, taus.size, failed.size))
        columns[1] = failed
        scored = taus < math.inf
        tau = taus[scored, None]
        start, cut, fail, end = self.edges
        before, last = self.last_arrivals
        # the gap that starts before the slice turns FAILED here; it ends at
        # the first delivery, or runs through a slice that has none
        flip = np.maximum(start, before + tau)
        est_failed = np.clip(np.where(self.counts > 0, cut, end) - flip, 0.0, None)
        # and the slice's own gaps beyond tau, summed as the table was built:
        # a finite threshold's hinge row counts the finite ones before it
        hinge_rows = np.cumsum(self.taus < math.inf) - 1
        est_failed += self.hinges[hinge_rows[chunk][scored]]
        # r3 holds no arrival: the estimate reads WORKING until last arrival + tau
        fn = np.where(failed > 0, np.clip(np.minimum(end, last + tau) - fail, 0.0, None), 0.0)
        columns[0, scored] = np.clip(est_failed - (failed - fn), 0.0, None)
        columns[1, scored] = fn
        # r1 holds no arrival either: its estimate turns FAILED once, at flip
        columns[2, scored] = np.where(self.region_times[0] > 0, np.clip(cut - flip, 0.0, None), 0.0)
        return columns


def _run_rows(departures, arrivals, counts, kept, starts, failures, ends, rows, taus, hinges) -> None:
    """Read one run's rows off its packets: consecutive periods of counts[p]
    packets each, back to back, whose generation and arrival times
    `departures` and `arrivals` hold relative to the period's start
    starts[p], and whose first kept[p] were delivered.

    For each period that delivered, rows (4, periods) gets its first
    arrival, its last arrival, the age at its last arrival and its r2 area:
    the sum of its own gap trapezoids from its first arrival, the last gap
    cut at its failure. Row i of hinges (thresholds, periods) gets its sum
    of max(gap - taus[i], 0), the last gap cut at its recovery end (its
    slice end). Group by group of whole periods, the starts are added to
    the packets in place, the gaps are written over the departures once
    the ages are read, and each period's delivered prefix is one
    `np.add.reduceat` segment, whatever group it falls in.
    """
    for a, b, lo, hi in sim._groups(counts):
        generations, times = departures[lo:hi], arrivals[lo:hi]
        ages = np.repeat(starts[a:b], counts[a:b])
        generations += ages
        times += ages
        np.subtract(times, generations, out=ages)
        delivering = np.flatnonzero(kept[a:b])
        if not delivering.size:
            continue
        group = a + delivering
        heads = (np.cumsum(counts[a:b]) - counts[a:b])[delivering]
        tails = heads + kept[group] - 1
        rows[0, group] = times[heads]
        rows[1, group] = times[tails]
        rows[2, group] = ages[tails]
        gaps = generations  # spent: the ages hold all the rows need of them
        np.subtract(times[1:], times[:-1], out=gaps[:-1])
        gaps[tails] = failures[group] - times[tails]
        # _age_area's trapezoids in its operand order
        terms = np.multiply(gaps, 0.5)
        terms += ages
        terms *= gaps
        # each delivered prefix, and the undelivered tail or empty span after
        # it (dropped); the last segment of reduceat runs to the group's end
        bounds = np.column_stack((heads, tails + 1)).ravel()
        bounds = bounds[:-1] if bounds[-1] == hi - lo else bounds
        rows[3, group] = np.add.reduceat(terms, bounds)[::2]
        gaps[tails] = ends[group] - times[tails]
        for tau, row in zip(taus, hinges):
            beyond = np.subtract(gaps, tau, out=terms)
            row[group] = np.add.reduceat(np.maximum(beyond, 0.0, out=beyond), bounds)[::2]


def _finish(periods: sim._Periods, rows, taus, hinges) -> PeriodTable:
    """The period table from the per-period arrays of `periods` and the
    rows and hinges `_run_rows` read off every run for `taus`, in
    O(periods): the edges
    clipped to the measured span [first arrival, end of run], the r1 and r3
    trapezoids and the region masks."""
    counts = periods.delivered_counts
    delivered = counts > 0
    if not delivered.any():
        raise EmptyTimelineError("timeline has no deliveries; the age is undefined")
    firsts, lasts, last_ages, r2 = rows
    # the age is undefined before the first arrival
    first = int(delivered.argmax())
    m0, m1 = float(firsts[first]), float(periods.recovery_ends[-1])
    if not m1 > m0:
        raise EmptyTimelineError("zero-length measured span has no average")
    # r1 ends at the first delivery, or at the failure when nothing was delivered
    cut = np.where(delivered, firsts, periods.failure_times)
    edges = np.clip(np.vstack((periods.start_times, cut, periods.failure_times, periods.recovery_ends)), m0, m1)
    # the last period that delivered before each period and up to it (the
    # same one when it delivered nothing); -1 before the first delivery
    through = np.maximum.accumulate(np.where(delivered, np.arange(counts.size), -1))
    last = np.vstack((np.append(-1, through[:-1]), through))
    # -1 reads the first delivering period: those regions are empty
    at = np.maximum(last, first)
    region_areas = np.zeros((3, counts.size))
    # r1 and r3 hold no arrival: one trapezoid each, from the last one before them
    region_areas[::2] = _age_area(edges[1::2] - edges[::2], last_ages[at] + (edges[::2] - lasts[at]))
    region_areas[1] = r2
    region_times = edges[1:] - edges[:3]
    region_areas = np.where(region_times > 0, region_areas, 0.0)
    return PeriodTable(
        params=periods.params,
        measured_time=m1 - m0,
        lengths=edges[3] - edges[0],
        areas=region_areas.sum(axis=0),
        region_times=region_times,
        region_areas=region_areas,
        edges=edges,
        last_arrivals=np.where(last >= 0, lasts[at], -np.inf),
        counts=counts,
        taus=taus,
        hinges=hinges,
    )


def simulate_table(params: SimParams, taus) -> PeriodTable:
    """The period table of a simulation of `params`, built to score the
    thresholds `taus` (any iterable, read once): each run's rows and
    hinges are read off its deliveries as soon as it is queued, and the run
    is dropped before the next is drawn. Beyond its per-period columns the
    table holds 8 bytes per finite threshold and period, and a run holds its
    packet buffer and services besides. Every threshold, and the hinges'
    cells against sim.MAX_EXPECTED_PACKETS, is checked before anything is
    drawn. Ages are integrated from reset ages, not absolute generation
    times, which stays well conditioned on long runs."""
    taus = np.array([float(tau) for tau in taus])
    for tau in taus.tolist():
        check_params(tau=tau)
    finite = taus[taus < math.inf]
    cells = finite.size * params.periods
    if cells > sim.MAX_EXPECTED_PACKETS:
        raise SimulationLimitError(
            f"the table's {finite.size} finite thresholds take {cells} cells, thresholds * periods, "
            f"over the cap MAX_EXPECTED_PACKETS = {sim.MAX_EXPECTED_PACKETS}"
        )
    periods, runs = sim._simulation(params)
    rows, hinges = np.zeros((4, params.periods)), np.zeros((finite.size, params.periods))
    for i, j, departures, arrivals in runs:
        _run_rows(departures, arrivals, periods.generated_counts[i:j], periods.delivered_counts[i:j],
                  periods.start_times[i:j], periods.failure_times[i:j], periods.recovery_ends[i:j],
                  rows[:, i:j], finite, hinges[:, i:j])
        del departures, arrivals
    return _finish(periods, rows, taus, hinges)


def check_confidence(confidence: float | None) -> None:
    """Reject a confidence level outside (0, 1); None (no half-widths) is
    valid. Callers run this before any work."""
    if confidence is not None and not 0 < confidence < 1:
        raise ParameterError(f"confidence must be in (0, 1) or None, got {confidence}")


def _ratio_halfwidth(numerator, table: PeriodTable, measured: int, z: float) -> float:
    """Regenerative half-width of numerator.sum() / measured_time over the
    `measured` periods with measured time: z * sd(a - R * L) / (mean(L) *
    sqrt(n)), the residual sd taken with n - 1 degrees of freedom (Crane &
    Iglehart, 1975; Asmussen & Glynn, Stochastic Simulation, ch. IV). A
    period before the first delivery has a = L = 0, so its residual is 0
    and summing over every period gives the same sum of squares."""
    residual = numerator - (float(numerator.sum()) / table.measured_time) * table.lengths
    return z * math.sqrt(float(residual @ residual) * measured / (measured - 1)) / table.measured_time


def summarize(table: PeriodTable, confidence: float | None = 0.95) -> list[dict]:
    """Each of the table's thresholds' empirical columns of `report.COLUMNS`,
    as a dict of Python scalars: the run's size and seed, the mean age and
    the region averages and times, the error rates and the reacquisition
    false-positive time, and regenerative ratio half-widths at the given
    confidence for the mean age, the full-span error and the
    detection-scope error.

    The region averages are time-weighted across the whole run; a region
    nobody entered has zero time and a NaN average.
    confidence=None skips the half-widths (they become None). The periods
    are the model's iid cycles, so each half-width is that of a ratio of
    per-period sums (`_ratio_halfwidth`); it needs two or more periods with
    measured time, and fewer raise EmptyTimelineError. The thresholds are
    scored by `PeriodTable.error_columns` in chunks of at most
    max(1, _SCORE_CELLS // periods), each threshold once, and its
    half-widths come from its own columns, so its columns do not depend on
    the thresholds beside it.
    """
    check_confidence(confidence)
    params, span = table.params, table.measured_time
    aoi_hw = z = None
    if confidence is not None:
        measured = int(np.count_nonzero(table.lengths))
        if measured < 2:
            raise EmptyTimelineError(
                f"{measured} of {table.lengths.size} periods have measured time (from the first "
                f"delivery on); a half-width needs at least 2"
            )
        from statistics import NormalDist  # imported here: `import agemon.cli` stays lean

        z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
        aoi_hw = _ratio_halfwidth(table.areas, table, measured, z)
    times = table.region_times.sum(axis=1).tolist()
    region_areas = table.region_areas.sum(axis=1).tolist()
    run = {
        "periods": params.periods, "seed": params.master_seed, "unstable_queue": params.unstable_queue,
        "measured_time": span, "aoi_empirical": table.aoi, "aoi_ci": aoi_hw,
        **{f"avg_r{k}": a / t if t > 0 else float("nan") for k, a, t in zip((1, 2, 3), region_areas, times)},
        **{f"time_r{k}": t for k, t in zip((1, 2, 3), times)},
    }

    def summary(columns):  # one threshold's (3, periods) fp, fn and reacq columns
        err_hw = detection_hw = None
        if z is not None:
            fp, fn, reacq = columns
            err_hw = _ratio_halfwidth(fp + fn, table, measured, z)
            detection_hw = _ratio_halfwidth(fp - reacq + fn, table, measured, z)
        fp_time, fn_time, reacq_time = columns.sum(axis=1).tolist()
        return dict(
            run, err_empirical=(fp_time + fn_time) / span,
            err_detection=(fp_time - reacq_time + fn_time) / span, err_ci=err_hw, err_detection_ci=detection_hw,
            fp_rate=fp_time / span, fn_rate=fn_time / span, reacquisition_fp_time=reacq_time,
        )

    # a chunk's columns are dropped before the next chunk is scored
    step = max(1, _SCORE_CELLS // table.lengths.size)
    summaries = []
    for i in range(0, table.taus.size, step):
        summaries += map(summary, table.error_columns(slice(i, i + step)).swapaxes(0, 1))
    return summaries
