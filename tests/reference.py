"""Serial reference implementations that the library is checked against.

A `Timeline` is a simulation as flat arrays: the per-period arrays of the
library's run loop, `sim._simulation`, and every delivery's arrival and
generation time. `simulate` collects the run loop's runs into one, keeping
each period's delivered packets and adding its start time itself, and
`period_table` reads a timeline as one run with the library's row builder,
`summary._run_rows` and `summary._finish`, so a hand-built timeline
exercises the production table too. `summary.simulate_table`, the
library's only simulation pipeline, must equal period_table(simulate())
bit for bit.

The run loop draws each of a block's streams in a few array calls and
queues many periods at once. The reference draws each period one after another,
in plain scalar code, from its block's streams
SeedSequence(master_seed, spawn_key=(block, k)), builds it as one
`PeriodTrace` object and lays the traces end to end; tests require the two
to agree bit for bit. It queues each period alone by its own scalar
recursion, `lindley_arrival_times`, and runs no production queue code.
The run loop queues a run of up to PERIODS_PER_BLOCK periods at once,
mostly in numpy steps that gather (steps, periods) cells at a time, and
finishes the last few periods on Python floats. So besides the stream
contract, the blocking and the flattening, the comparison checks both
paths of the lockstep arithmetic against an independent recursion.

`estimated_state_trajectory` builds the detector's estimated state as
explicit intervals, the oracle behind the interval-walk checks of
`PeriodTable.error_columns`; a threshold of inf always declares WORKING.
`age_pieces` cuts the age sawtooth into the trapezoids that the row
builder integrates, so a test can add them up with `math.fsum`.

`quadrature_error_rates` is the error rate of any thresholds by adaptive
quadrature of the unsimplified gap-age densities, the independent route that
`analytics.error_rate`'s closed form is checked against; it is described
where it is defined. `scan_optimal_threshold` finds the optimal threshold by
a grid scan of it, independently of the closed forms. `pdf_z_given_r2` and
`pdf_z_given_r3` are the gap-age densities with their own argument checks,
the integrands the quadrature must evaluate bit for bit, and
`quadrature_error_rate` is the quadrature at one threshold.

`bootstrap_halfwidths` is the percentile bootstrap over periods that the
library's confidence half-widths came from before the regenerative ratio
estimator replaced it; tests check that the two agree.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, fields
from itertools import accumulate

import numpy as np
from scipy import integrate

import agemon.sim as sim
import agemon.summary as summary
from agemon import EmptyTimelineError, ParameterError, PeriodTable, SimParams
from agemon.analytics import failure_prior
from agemon.errors import check_params


@dataclass(frozen=True, eq=False)
class Timeline:
    """Abutting periods on one absolute clock, as flat arrays.

    The per-period arrays are those of the run loop's record,
    `sim._Periods`; arrival_times and arrival_generations hold every
    delivery, period after period (delivered_counts[p] of them for period
    p).
    """

    params: SimParams
    start_times: np.ndarray
    failure_times: np.ndarray
    recovery_ends: np.ndarray
    times_to_failure: np.ndarray
    arrival_times: np.ndarray
    arrival_generations: np.ndarray
    delivered_counts: np.ndarray
    generated_counts: np.ndarray

    @property
    def end_time(self) -> float:
        return float(self.recovery_ends[-1])


def simulate(params: SimParams) -> Timeline:
    """The library's simulation of `params` as a Timeline: the run loop's
    per-period arrays and its runs' deliveries, joined run after run. Each
    run yields every packet of its periods relative to their starts; period
    p keeps its first delivered_counts[p] packets, its start time added."""
    periods, runs = sim._simulation(params)
    generations, arrivals = [], []
    for i, j, departures, times in runs:
        heads = np.cumsum(periods.generated_counts[i:j]) - periods.generated_counts[i:j]
        for head, kept, start in zip(heads.tolist(), periods.delivered_counts[i:j].tolist(),
                                     periods.start_times[i:j].tolist()):
            generations.append(departures[head:head + kept] + start)
            arrivals.append(times[head:head + kept] + start)
    return Timeline(**{field.name: getattr(periods, field.name) for field in fields(periods)},
                    arrival_times=np.concatenate(arrivals), arrival_generations=np.concatenate(generations))


def period_table(timeline: Timeline, taus) -> PeriodTable:
    """A timeline's period table for the thresholds `taus`, read by the
    library's row builder as one run whose every packet was delivered, at
    start times of 0 (its times are absolute already); the builder writes
    over copies of the times, so the timeline's arrays are left as they are."""
    taus = np.array([float(tau) for tau in taus])
    periods = timeline.delivered_counts.size
    rows, hinges = np.zeros((4, periods)), np.zeros((taus.size, periods))
    summary._run_rows(timeline.arrival_generations.copy(), timeline.arrival_times.copy(),
                      timeline.delivered_counts, timeline.delivered_counts, np.zeros(periods),
                      timeline.failure_times, timeline.recovery_ends, rows, taus, hinges)
    return summary._finish(timeline, rows, taus, hinges)


def block_streams(master_seed: int, block: int) -> tuple[np.random.Generator, ...]:
    """Block `block`'s streams, SeedSequence(master_seed, spawn_key=(block, k))
    for k = 0 (clocks), 1 (first services), 2 (spacings), 3 (update counts)
    and 4 (the other services)."""
    return tuple(
        np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(block, k)))
        for k in range(5)
    )


def block_count(params: SimParams) -> int:
    return -(-params.periods // sim.PERIODS_PER_BLOCK)


def uniform_departures(T: float, sums) -> np.ndarray:
    """A period's departures from the running sums of its N + 1 spacings,
    sums[0] being the sum before them: min(T, C_i * (T / C_{N+1})) for
    i = 0..N with C_i = sums[i] - sums[0], or all 0 if C_{N+1} is 0."""
    C = [float(s) - float(sums[0]) for s in sums]
    scale = T / C[-1] if C[-1] > 0 else 0.0
    return np.array([min(T, c * scale) for c in C[:-1]])


def block_draws(params: SimParams, block: int) -> tuple[list, dict]:
    """(time to failure, relative departures, services) of each period of
    `block`, in period order, and how many first-update redraws and periods
    with no update after the first the block has."""
    lo = block * sim.PERIODS_PER_BLOCK
    size = min(sim.PERIODS_PER_BLOCK, params.periods - lo)
    clocks, firsts, spacings, updates, services = block_streams(params.master_seed, block)
    T = [clocks.exponential(1.0 / params.nu) for _ in range(size)]
    first = [firsts.exponential(1.0 / params.mu) for _ in range(size)]
    coverage = {"redraws": 0, "empty": 0}
    # conditioning: every period whose first update is lost redraws its
    # clock and first service, round after round, in period order
    lost = [p for p in range(size) if params.require_delivery and first[p] > T[p]]
    while lost:
        for p in lost:
            T[p] = clocks.exponential(1.0 / params.nu)
            first[p] = firsts.exponential(1.0 / params.mu)
        coverage["redraws"] += len(lost)
        lost = [p for p in lost if first[p] > T[p]]
    total = 0.0  # the running sum of the block's spacings, in draw order
    draws = []
    for p in range(size):
        n = int(updates.poisson(params.lam * T[p]))
        coverage["empty"] += n == 0
        sums = np.cumsum([total, *spacings.standard_exponential(size=n + 1)])
        total = sums[-1]
        later = services.exponential(1.0 / params.mu, size=n)
        draws.append((T[p], uniform_departures(T[p], sums), np.array([first[p], *later])))
    return draws, coverage


def lindley_arrival_times(departures, services) -> np.ndarray:
    """FCFS arrival times from the recursion a_k = max(d_k, a_{k-1}) + s_k."""
    departures = np.asarray(departures, dtype=np.float64)
    services = np.asarray(services, dtype=np.float64)
    if departures.size != services.size:
        raise ParameterError("departures and services must have equal length")
    arrivals, a = [], -math.inf
    for d, s in zip(departures.tolist(), services.tolist()):
        a = max(d, a) + s
        arrivals.append(a)
    return np.array(arrivals, dtype=np.float64)


@dataclass(frozen=True, eq=False)
class PeriodTrace:
    """One failure-to-failure period.

    `generations` holds every departure time (absolute seconds, first entry
    equals start_time); `arrival_times` holds the monitor-side arrival of
    the delivered prefix. Deliveries are always a prefix of the generations
    because FCFS arrival times are strictly increasing. failure_time and
    recovery_end are constructed as start_time + time_to_failure and
    failure_time + recovery_duration; the drawn durations are kept so the
    exact values survive the absolute-clock rounding.
    """

    start_time: float
    failure_time: float
    recovery_end: float
    time_to_failure: float
    recovery_duration: float
    generations: np.ndarray
    arrival_times: np.ndarray
    discarded_count: int

    @property
    def delivered_count(self) -> int:
        return int(self.arrival_times.size)

    @property
    def delivery_generations(self) -> np.ndarray:
        return self.generations[: self.arrival_times.size]

    def shifted(self, offset: float) -> "PeriodTrace":
        """The same trace moved by `offset` seconds on the absolute clock."""
        failure = self.start_time + offset + self.time_to_failure
        return PeriodTrace(
            start_time=self.start_time + offset,
            failure_time=failure,
            recovery_end=failure + self.recovery_duration,
            time_to_failure=self.time_to_failure,
            recovery_duration=self.recovery_duration,
            generations=self.generations + offset,
            arrival_times=self.arrival_times + offset,
            discarded_count=self.discarded_count,
        )


def generate_period(params: SimParams, T: float, departures, services, start: float = 0.0) -> PeriodTrace:
    """One period from its draws: time to failure T, departure times
    relative to the period start (the first is 0) and one service each.
    Its first update departs exactly at `start`."""
    departures = np.asarray(departures, dtype=np.float64)
    rel_arrivals = lindley_arrival_times(departures, services)
    # arrivals strictly increase, so delivered packets (a_k <= T) form a prefix
    n_delivered = int(np.searchsorted(rel_arrivals, T, side="right"))
    failure_time = start + T
    return PeriodTrace(
        start_time=start,
        failure_time=failure_time,
        recovery_end=failure_time + params.r,
        time_to_failure=T,
        recovery_duration=params.r,
        generations=start + departures,
        arrival_times=start + rel_arrivals[:n_delivered],
        discarded_count=int(departures.size) - n_delivered,
    )


def block_traces(params: SimParams, block: int) -> list[PeriodTrace]:
    """Each period of `block`, generated alone from t = 0."""
    return [generate_period(params, *draws) for draws in block_draws(params, block)[0]]


def lay_end_to_end(params: SimParams, traces) -> Timeline:
    """The Timeline of period traces built from t = 0, each shifted to
    start at the recovery end of the one before it."""
    laid, start = [], 0.0
    for trace in traces:
        laid.append(trace.shifted(start))
        start = laid[-1].recovery_end
    return timeline_from_periods(params, laid)


def timeline_from_periods(params: SimParams, traces) -> Timeline:
    """The flat Timeline of abutting period traces."""
    traces = tuple(traces)
    if not traces:
        raise ParameterError("a timeline needs at least one period")
    starts = np.array([t.start_time for t in traces])
    ends = np.array([t.recovery_end for t in traces])
    if starts.size > 1 and not np.array_equal(starts[1:], ends[:-1]):
        raise ParameterError("periods must abut: each start must equal the previous recovery end")
    return Timeline(
        params=params,
        start_times=starts,
        failure_times=np.array([t.failure_time for t in traces]),
        recovery_ends=ends,
        times_to_failure=np.array([t.time_to_failure for t in traces]),
        arrival_times=np.concatenate([t.arrival_times for t in traces]),
        arrival_generations=np.concatenate([t.delivery_generations for t in traces]),
        delivered_counts=np.array([t.delivered_count for t in traces], dtype=np.int64),
        generated_counts=np.array([t.generations.size for t in traces], dtype=np.int64),
    )


def reference_timeline(params: SimParams) -> Timeline:
    """What `simulate(params)` must return: block after block, each period
    drawn after the one before it, laid end to end from t = 0."""
    blocks = range(block_count(params))
    return lay_end_to_end(params, [trace for block in blocks for trace in block_traces(params, block)])


def estimated_state_trajectory(timeline: Timeline, tau) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The estimate of the rule with threshold tau from the first arrival to
    the end of the last period, as ordered, gap-free intervals (starts, ends,
    failed); tau = inf gives one WORKING interval.

    z runs straight through failures and recoveries (the monitor cannot see
    them), so the estimate flips to FAILED at a + tau whenever the next
    arrival is more than tau after a, and back to WORKING on each arrival.
    """
    arrivals = timeline.arrival_times
    if arrivals.size == 0:
        raise EmptyTimelineError("timeline has no deliveries; nothing to estimate")
    end = timeline.end_time
    if tau == math.inf:
        return np.array([arrivals[0]]), np.array([end]), np.array([False])
    nxt = np.append(arrivals[1:], end)
    long = (nxt - arrivals) > tau
    n = arrivals.size + int(long.sum())
    starts = np.empty(n)
    ends = np.empty(n)
    failed = np.zeros(n, dtype=bool)
    pos = np.arange(arrivals.size) + np.concatenate(([0], np.cumsum(long[:-1])))
    starts[pos] = arrivals
    ends[pos] = np.minimum(arrivals + tau, nxt)
    flip = pos[long] + 1
    starts[flip] = arrivals[long] + tau
    ends[flip] = nxt[long]
    failed[flip] = True
    return starts, ends, failed


def naive_error_times(timeline, tau):
    """Reference mismatch accounting: walk the estimated intervals and clip
    each against every true-failure interval."""
    starts, ends, failed = estimated_state_trajectory(timeline, tau)
    fails, recoveries = timeline.failure_times, timeline.recovery_ends
    fp = fn = 0.0
    for lo, hi, is_failed in zip(starts.tolist(), ends.tolist(), failed.tolist()):
        failed_overlap = sum(
            max(0.0, min(hi, e) - max(lo, f)) for f, e in zip(fails, recoveries)
        )
        if is_failed:
            fp += (hi - lo) - failed_overlap
        else:
            fn += failed_overlap
    return fp, fn


def naive_slice_mismatch(timeline, tau) -> list[list[float]]:
    """Reference per-period (false-positive, false-negative, reacquisition
    false-positive) times: walk the estimated intervals and clip each against
    every period's slice [start, recovery end) of the measured span, against
    the slice's failure [failure, recovery end) and against its r1, [start,
    first delivery), or [start, failure) when it delivers nothing."""
    starts, ends, failed = estimated_state_trajectory(timeline, tau)
    arrivals = timeline.arrival_times.tolist()
    first, end = arrivals[0], timeline.end_time

    def clip(t):
        return min(max(t, first), end)

    periods, head = [], 0
    for s, f, e, count in zip(timeline.start_times.tolist(), timeline.failure_times.tolist(),
                              timeline.recovery_ends.tolist(), timeline.delivered_counts.tolist()):
        periods.append((clip(s), clip(arrivals[head] if count else f), clip(f), clip(e)))
        head += count

    def overlap(lo, hi, a, b):
        return max(0.0, min(hi, b) - max(lo, a))

    fp, fn, reacq = ([0.0] * len(periods) for _ in range(3))
    for lo, hi, is_failed in zip(starts.tolist(), ends.tolist(), failed.tolist()):
        for p, (s, c, f, e) in enumerate(periods):
            in_failure = overlap(lo, hi, f, e)
            if is_failed:
                fp[p] += overlap(lo, hi, s, e) - in_failure
                reacq[p] += overlap(lo, hi, s, c)
            else:
                fn[p] += in_failure
    return [fp, fn, reacq]


def age_pieces(arrivals: list[float], ages: list[float], lo: float, hi: float) -> list[float]:
    """The age sawtooth's trapezoids over [lo, hi), one per arrival gap that
    meets it, cut at lo and hi, in plain floats. `ages` holds each arrival's
    age (arrival minus generation time); lo must not precede the first
    arrival."""
    j = bisect_right(arrivals, lo) - 1
    t, age = lo, ages[j] + (lo - arrivals[j])
    pieces = []
    while True:
        end = min(arrivals[j + 1], hi) if j + 1 < len(arrivals) else hi
        length = end - t
        pieces.append(length * (age + 0.5 * length))
        if end == hi:
            return pieces
        j += 1
        t, age = arrivals[j], ages[j]


# The bootstrap's resample indices: a sixth kind of draw, which no block of
# the simulation draws
BOOTSTRAP_KEY = (0, 5)
# at the cap, the statistics array of 33 rows (the age and 32 thresholds) takes 264 MB
MAX_RESAMPLES = 10**6

# A batch of B resamples gathers (n periods, B, k rows) floats, at most
# _BOOTSTRAP_CELLS of them (2 MB) unless that leaves fewer than
# _BOOTSTRAP_MIN_SUMS running sums, B * k: summing the periods costs one
# numpy inner loop per period, which is slow when it adds only a few
# columns. Neither is part of the contract: any batch size gives the same
# half-widths.
_BOOTSTRAP_CELLS = 2**18
_BOOTSTRAP_MIN_SUMS = 16


def check_resamples(resamples: int) -> None:
    """Reject a bootstrap size outside [0, MAX_RESAMPLES]."""
    if resamples < 0:
        raise ParameterError(f"resamples must be >= 0, got {resamples}")
    if resamples > MAX_RESAMPLES:
        raise ParameterError(f"resamples must be <= {MAX_RESAMPLES}, got {resamples}")


def bootstrap_halfwidths(seed: int, numerators, lengths, resamples: int, confidence: float):
    """Percentile-bootstrap half-widths of the ratios numerators[i].sum() /
    lengths.sum() over period resamples. Every call replays the same index
    stream, so a row's half-width does not depend on which rows are stacked
    with it. Resamples are gathered in batches; the batch size changes no
    bit. A resample of only zero-length periods (before the first delivery)
    has no ratio, so any such draw raises EmptyTimelineError."""
    check_resamples(resamples)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=BOOTSTRAP_KEY))
    k, n = numerators.shape
    cols = np.ascontiguousarray(numerators.T)
    batch = max(-(-_BOOTSTRAP_MIN_SUMS // k), _BOOTSTRAP_CELLS // (n * k))
    stats = np.empty((resamples, k))
    empty = 0
    for start in range(0, resamples, batch):
        # each index takes the generator's next 32-bit draw, so one (B, n)
        # call draws what B calls of n indices would
        idx = rng.integers(0, n, size=(min(batch, resamples - start), n))
        # Reducing the outer axis of the (n, B, k) gather adds one period
        # after another, the order numpy used on the F-ordered
        # numerators[:, idx] of a per-resample loop (F-ordered when there
        # are two or more rows; one row would be summed pairwise). Each
        # denominator row is contiguous, so it keeps numpy's pairwise sum
        # of one resample's lengths.
        totals = np.take(cols, idx.T, axis=0).sum(axis=0)
        spans = np.take(lengths, idx).sum(axis=1)
        empty += int(np.count_nonzero(spans == 0.0))
        if not empty:
            stats[start:start + idx.shape[0]] = totals / spans[:, None]
    if empty:
        raise EmptyTimelineError(
            f"{empty} of {resamples} bootstrap resamples drew only periods with no measured time "
            f"(before the first delivery); more periods are needed for a half-width"
        )
    tail = 100.0 * (1.0 - confidence) / 2.0
    lo, hi = np.percentile(stats, [tail, 100.0 - tail], axis=0)
    return (hi - lo) / 2.0


# The quadrature integrates the prior-weighted conditional densities
# directly (the unsimplified expressions), so its agreement with the
# algebraic error rates is a genuine cross-check rather than a tautology.
#
# A threshold grid chains its integrals between consecutive thresholds
# (quadrature_error_rates). QUADPACK's first qagse step, the 21-point
# Gauss-Kronrod rule and its stopping test, runs on all of a chain's finite
# segments in one numpy pass and in QUADPACK's order of arithmetic, so each
# value has the bits scipy.integrate.quad gives it. Only the segments on
# which qagse would go on, and the integrals to infinity, call
# scipy.integrate.quad. A one-point grid is exactly the single-threshold
# computation. The chains keep the test suite's scans fast: on a 2-vCPU
# Xeon, criterion 3's 2001-point scan takes ~0.01 s, against ~1.25 s as
# one-point quadratures.

# The gap age's densities, each branch once, unchecked, for a float or an array
# z and a = lam + nu. In normal operation z ~ Exp(a): neither a delivery nor a
# failure for z seconds. In an outage z is the gap age at the failure plus a
# uniform elapsed time in [0, r]: (1 - e^(-a z)) / r below r and
# e^(-a z) (e^(a r) - 1) / r from r on, continuous at r.
# numpy's exp/expm1 give a float the same bits as an array element; math's do not.
def _working_density(z, a):
    return a * np.exp(-a * z)


def _outage_density_before(z, a, r):
    return -np.expm1(-a * z) / r


def _outage_density_after(z, a, r):
    return np.exp(-a * z) * np.expm1(a * r) / r


def _outage_density(z, a, r):
    """The outage density at a float or an array z, each point on the branch
    that z < r picks; a branch is evaluated only where it is taken."""
    if isinstance(z, float):
        return _outage_density_before(z, a, r) if z < r else _outage_density_after(z, a, r)
    out = np.empty_like(z)
    before = z < r
    out[before] = _outage_density_before(z[before], a, r)
    if not before.all():
        out[~before] = _outage_density_after(z[~before], a, r)
    return out


def _check_outage_tail(a, r):
    """Raise unless expm1(a r) is finite: past r the outage density would be
    exp(-a z) * inf, inf or NaN."""
    try:
        math.expm1(a * r)
    except OverflowError:
        raise ParameterError(
            f"(lam + nu) * r = {a * r:.6g} overflows exp in the outage density past r (limit ~709.78)"
        ) from None


class OracleError(RuntimeError):
    """The quadrature failed to converge; no guess is returned."""


_QUAD_EPSABS, _QUAD_EPSREL = 1e-12, 1e-11
_QUAD_MAX_ERR = 1e-10
# A decaying chain (an integral to infinity, extended downward threshold by
# threshold) restarts from a fresh integral to infinity where the segment to
# the next threshold spans more than this many decay lengths 1/(lam + nu).
# Over 32 of them the density falls by e^-32 ~ 1e-14, so the 21-point rule on
# the segment can put no node where its mass is: it returns 0 with abserr 0,
# reports convergence, and the chain loses the segment's whole mass.
_RESTART_DECAY_LENGTHS = 32.0

# QUADPACK's dqk21 (Piessens et al., QUADPACK, 1983), in its decimals: the
# Kronrod nodes x_0 > ... > x_9 > 0 (the odd ones are the 10-point Gauss
# nodes), the Kronrod weights of x_0, ..., x_9 and of the centre 0, and the
# Gauss weights
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452, 0.930157491355708226001207180059508,
    0.865063366688984510732096688423493, 0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784, 0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390, 0.054755896574351996031381300244580,
    0.075039674810919952767043140916190, 0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208794696163, 0.134709217311473325928054001771707, 0.142775938577060080797094273138717,
    0.147739104901338491374841515972068, 0.149445554002916905664936468389821,
])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697, 0.219086362515982043995534934228163,
    0.269266719309996355091226921569469, 0.295524224714752870173892994651338,
])
_EPMACH, _UFLOW = np.finfo(np.float64).eps, np.finfo(np.float64).tiny
# relative distance from qagse's acceptance bounds inside which a segment
# goes to _quad: numpy's ** and C's pow may differ in the last bit of abserr
_ACCEPT_MARGIN = 1e-9


def _quad(fn, lo, hi) -> tuple[float, float]:
    out = integrate.quad(fn, lo, hi, epsabs=_QUAD_EPSABS, epsrel=_QUAD_EPSREL, limit=300, full_output=1)
    value, abserr = out[0], out[1]
    if len(out) > 3 or abserr > _QUAD_MAX_ERR:
        raise OracleError(
            f"quadrature on [{lo}, {hi}] did not converge (abserr={abserr:.2e})"
        )
    return value, abserr


def _kronrod21(density, lo, hi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """QUADPACK's first qagse step on each finite segment [lo_i, hi_i] of two
    arrays: dqk21's value and abserr, in dqk21's order of arithmetic, and
    whether qagse would return them after that step. `density` is evaluated
    once, on the (21, m) array of abscissae."""
    centr, hlgth = 0.5 * (lo + hi), 0.5 * (hi - lo)
    absc = hlgth * _XGK[:, None]
    f = density(np.concatenate((centr[None], centr - absc, centr + absc)))
    fc, fv1, fv2 = f[0], f[1:11], f[11:]
    # each weighted term as dqk21 forms it; builtin sum adds the rows left
    # to right onto its start, as dqk21's loops do (the Gauss nodes first)
    order = [1, 3, 5, 7, 9, 0, 2, 4, 6, 8]
    wgk = _WGK[:10, None]
    resg = sum(_WG[:, None] * (fv1[1::2] + fv2[1::2]), 0.0)
    resk = sum((wgk * (fv1 + fv2))[order], _WGK[10] * fc)
    resabs = sum((wgk * (np.abs(fv1) + np.abs(fv2)))[order], np.abs(_WGK[10] * fc))
    reskh = resk * 0.5
    resasc = sum(wgk * (np.abs(fv1 - reskh) + np.abs(fv2 - reskh)), _WGK[10] * np.abs(fc - reskh))
    result = resk * hlgth
    resabs, resasc = resabs * np.abs(hlgth), resasc * np.abs(hlgth)
    abserr = np.abs((resk - resg) * hlgth)
    scaled = (resasc != 0.0) & (abserr != 0.0)
    ratio = 200.0 * abserr / np.where(scaled, resasc, 1.0)
    abserr = np.where(scaled, resasc * np.minimum(1.0, ratio**1.5), abserr)
    floor = resabs > _UFLOW / (50.0 * _EPMACH)
    abserr = np.where(floor, np.maximum((_EPMACH * 50.0) * resabs, abserr), abserr)
    # qagse stops if abserr <= max(epsabs, epsrel |result|) and abserr !=
    # resasc, or if abserr == 0
    errbnd = np.maximum(_QUAD_EPSABS, _QUAD_EPSREL * np.abs(result))
    stops = (abserr <= (1.0 - _ACCEPT_MARGIN) * errbnd) & (np.abs(abserr - resasc) > _ACCEPT_MARGIN * resasc)
    return result, abserr, stops | (abserr == 0.0)


def _integrals(density, lo, hi) -> tuple[list[float], list[float]]:
    """integral_lo_i^hi_i density and its abserr over finite segments: one
    _kronrod21 pass, then _quad on each segment where qagse would go on."""
    if not lo:
        return [], []
    lo, hi = np.array(lo), np.array(hi)
    values, errs, stops = _kronrod21(density, lo, hi)
    values, errs = values.tolist(), errs.tolist()
    for i in np.flatnonzero(~stops).tolist():
        values[i], errs[i] = _quad(density, float(lo[i]), float(hi[i]))
    return values, errs


def _head_chain(fn, ts) -> tuple[list[float], list[float]]:
    """integral_0^t fn and its error bound at each of the ascending `ts`, each
    value the previous one plus the segment from the previous threshold."""
    cuts = [0.0] + [t for t in ts if t > 0]
    zeros = [0.0] * (len(ts) + 1 - len(cuts))  # t = 0 adds nothing and takes no integral
    segs, seg_errs = _integrals(fn, cuts[:-1], cuts[1:])
    return zeros + list(accumulate(segs)), zeros + list(accumulate(seg_errs))


def _tail_chain(fn, ts, restart: float) -> tuple[list[float], list[float]]:
    """integral_t^inf fn and its error bound at each of the ascending `ts`, each
    value the segment to the next threshold plus that threshold's value, or a
    fresh integral to infinity where the segment is longer than `restart`."""
    chained = [i for i in range(len(ts) - 1) if not ts[i + 1] - ts[i] > restart]
    segs = dict(zip(chained, zip(*_integrals(fn, [ts[i] for i in chained], [ts[i + 1] for i in chained]))))
    values, errs = [0.0] * len(ts), [0.0] * len(ts)
    for i in range(len(ts) - 1, -1, -1):
        if i in segs:
            values[i], errs[i] = segs[i][0] + values[i + 1], segs[i][1] + errs[i + 1]
        else:
            values[i], errs[i] = _quad(fn, ts[i], np.inf)
    return values, errs


def quadrature_error_rates(lam: float, nu: float, r: float, taus) -> list[float]:
    """Error probability of the rule "FAILED while z > tau" at each of `taus`
    (any iterable, read once, all checked before any integral), by adaptive
    quadrature:

        P(working) * integral_tau^inf density(z | working) dz     (false positives)
      + P(failed)  * integral_0^tau  density(z | failed)  dz      (false negatives)

    The integrands are the unsimplified gap-age densities of `analytics`,
    evaluated unchecked after one check of the parameters.

    Each distinct threshold is computed once, over the sorted thresholds
    t_1 < ... < t_m, by three chains of integrals between consecutive ones:
    the false positives downward from infinity, fp(t_i) = integral over
    [t_i, t_{i+1}] + fp(t_{i+1}); the outage mass below tau <= r upward from 0;
    and for tau > r the whole outage mass (over [0, r] and [r, inf), taken
    once) minus a tail chained downward like fp. A decaying chain restarts
    from a fresh integral to infinity across a gap longer than
    _RESTART_DECAY_LENGTHS / (lam + nu). A one-point grid is the plain
    one-point quadrature; a longer grid's values agree with it to rounding.
    Raises OracleError if the summed abserr of the integrals a value adds
    exceeds _QUAD_MAX_ERR, and ParameterError before any integral if a
    threshold lies above r and (lam + nu) * r overflows exp.
    """
    taus = [float(tau) for tau in taus]
    check_params(lam=lam, nu=nu, r=r)
    for tau in taus:
        check_params(tau=tau)
    if not r > 0:
        raise ParameterError(f"r must be > 0, got {r}")
    ts, where = np.unique(taus, return_inverse=True)
    ts = ts.tolist()
    p_failed = failure_prior(nu, r)
    a = lam + nu
    restart = _RESTART_DECAY_LENGTHS / a
    split = bisect_right(ts, r)
    if split < len(ts):
        _check_outage_tail(a, r)
    outage = lambda z: _outage_density(z, a, r)
    fp, fp_err = _tail_chain(lambda z: _working_density(z, a), ts, restart)
    fn, fn_err = _head_chain(outage, ts[:split])
    if split < len(ts):
        # the density has a kink at z = r; past it, integrate the decaying
        # tail against an infinite limit (stable however large tau is)
        ([head], [head_err]), (rest, rest_err) = _integrals(outage, [0.0], [r]), _quad(outage, r, np.inf)
        whole, whole_err = head + rest, head_err + rest_err
        tail, tail_err = _tail_chain(outage, ts[split:], restart)
        fn += [whole - t for t in tail]
        fn_err += [whole_err + e for e in tail_err]
    rates = []
    for tau, f_p, f_n, e_p, e_n in zip(ts, fp, fn, fp_err, fn_err):
        if (err := e_p + e_n) > _QUAD_MAX_ERR:
            raise OracleError(f"quadrature error bound {err:.2e} at tau={tau} exceeds {_QUAD_MAX_ERR:.0e}")
        rates.append((1.0 - p_failed) * f_p + p_failed * f_n)
    return [rates[i] for i in where.tolist()]


def scan_optimal_threshold(lam: float, nu: float, r: float, grid) -> float:
    """Grid argmin of quadrature_error_rates; ties keep the first grid point."""
    grid = np.asarray(grid, dtype=np.float64)
    if grid.size == 0:
        raise ParameterError("threshold grid must be non-empty")
    return float(grid[int(np.argmin(quadrature_error_rates(lam, nu, r, grid)))])


def pdf_z_given_r2(z, lam: float, nu: float):
    """Density of the gap age during normal operation.

    A gap age of z requires neither a new delivery nor a failure for z
    seconds, so z is exponential with rate lam + nu:
    f(z) = (lam + nu) * exp(-(lam + nu) z).
    """
    check_params(lam=lam, nu=nu)
    z = np.asarray(z, dtype=np.float64)
    if not np.all(z >= 0):
        raise ParameterError("z must be >= 0")
    out = _working_density(z, lam + nu)
    return float(out) if out.ndim == 0 else out


def pdf_z_given_r3(z, lam: float, nu: float, r: float):
    """Density of the gap age during an outage.

    During the outage z equals the gap age at the failure plus a uniform
    elapsed time in [0, r]; convolving the two gives
        (1 - exp(-(lam+nu) z)) / r                    for 0 <= z < r,
        exp(-(lam+nu) z) (exp((lam+nu) r) - 1) / r    for z >= r,
    continuous at z = r. Raises ParameterError for z >= r if (lam + nu) * r
    overflows exp.
    """
    check_params(lam=lam, nu=nu, r=r)
    if not r > 0:
        raise ParameterError(f"r must be > 0, got {r}")
    z = np.asarray(z, dtype=np.float64)
    if not np.all(z >= 0):
        raise ParameterError("z must be >= 0")
    a = lam + nu
    if np.any(z >= r):
        _check_outage_tail(a, r)
    out = _outage_density(z, a, r)
    return float(out) if out.ndim == 0 else out


def quadrature_error_rate(lam: float, nu: float, r: float, tau: float) -> float:
    """The quadrature error rate at one threshold: a one-point grid."""
    return quadrature_error_rates(lam, nu, r, [tau])[0]
