"""Serial reference implementations that the library is checked against.

`simulate` draws each of a block's streams in a few array calls and queues
many periods at once. The reference draws each period one after another,
in plain scalar code, from its block's streams
SeedSequence(master_seed, spawn_key=(block, k)), builds it as one
`PeriodTrace` object and lays the traces end to end; tests require the two
to agree bit for bit. It queues each period alone through the library's
`_lindley_lockstep`, which solves a single period on its serial Python-float
path, while `simulate` queues up to a block of periods at once and takes mostly
the numpy steps. So besides the stream contract, the blocking and the
flattening, the comparison checks the lockstep arithmetic independently.

`estimated_state_trajectory` builds the detector's estimated state as
explicit intervals, the oracle behind the interval-walk check of
`PeriodTable.error`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import agemon.sim as sim
from agemon import EmptyTimelineError, ParameterError, SimParams, Timeline
from agemon.sim import _lindley_lockstep


def block_streams(master_seed: int, block: int) -> tuple[np.random.Generator, ...]:
    """Block `block`'s streams, SeedSequence(master_seed, spawn_key=(block, k))
    for k = 0 (clocks), 1 (first services), 2 (gaps), 3 (refill gaps) and
    4 (the other services)."""
    return tuple(
        np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(block, k)))
        for k in range(5)
    )


def block_count(params: SimParams) -> int:
    return -(-params.periods // sim.PERIODS_PER_BLOCK)


def block_draws(params: SimParams, block: int) -> tuple[list, dict]:
    """(time to failure, relative departures, services) of each period of
    `block`, in period order, and how many first-update redraws and chunk
    refills the block needed."""
    lo = block * sim.PERIODS_PER_BLOCK
    size = min(sim.PERIODS_PER_BLOCK, params.periods - lo)
    clocks, firsts, gaps, refills, services = block_streams(params.master_seed, block)
    T = [clocks.exponential(1.0 / params.nu) for _ in range(size)]
    first = [firsts.exponential(1.0 / params.mu) for _ in range(size)]
    counts = {"redraws": 0, "refills": 0}
    # conditioning: every period whose first update is lost redraws its
    # clock and first service, round after round, in period order
    lost = [p for p in range(size) if params.require_delivery and first[p] > T[p]]
    while lost:
        for p in lost:
            T[p] = clocks.exponential(1.0 / params.nu)
            first[p] = firsts.exponential(1.0 / params.mu)
        counts["redraws"] += len(lost)
        lost = [p for p in lost if first[p] > T[p]]
    total = 0.0  # the running sum of the block's gaps, in draw order
    draws = []
    for p in range(size):
        chunk = int(1.25 * params.lam * T[p]) + 8
        sums = np.cumsum([total, *gaps.exponential(1.0 / params.lam, size=chunk)])
        total = sums[-1]
        relative = list(sums - sums[0])
        while relative[-1] <= T[p]:
            # the chunk ran out before the failure: refill, continuing the sum
            more = refills.exponential(1.0 / params.lam, size=chunk)
            relative.extend(np.cumsum([relative[-1], *more])[1:])
            counts["refills"] += 1
        departures = np.array([d for d in relative if d <= T[p]])
        later = services.exponential(1.0 / params.mu, size=departures.size - 1)
        draws.append((T[p], departures, np.array([first[p], *later])))
    return draws, counts


def lindley_arrival_times(departures, services) -> np.ndarray:
    """FCFS arrival times from the recursion a_k = max(d_k, a_{k-1}) + s_k."""
    departures = np.asarray(departures, dtype=np.float64)
    services = np.asarray(services, dtype=np.float64)
    if departures.size != services.size:
        raise ParameterError("departures and services must have equal length")
    return _lindley_lockstep(departures, services, np.array([departures.size]))


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


def estimated_state_trajectory(timeline: Timeline, rule) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rule's estimate from the first arrival to the end of the last
    period, as ordered, gap-free intervals (starts, ends, failed).

    z runs straight through failures and recoveries (the monitor cannot see
    them), so the estimate flips to FAILED at a + tau whenever the next
    arrival is more than tau after a, and back to WORKING on each arrival.
    """
    arrivals = timeline.arrival_times
    if arrivals.size == 0:
        raise EmptyTimelineError("timeline has no deliveries; nothing to estimate")
    end = timeline.end_time
    if rule.degenerate:
        return np.array([arrivals[0]]), np.array([end]), np.array([False])
    nxt = np.append(arrivals[1:], end)
    long = (nxt - arrivals) > rule.tau
    n = arrivals.size + int(long.sum())
    starts = np.empty(n)
    ends = np.empty(n)
    failed = np.zeros(n, dtype=bool)
    pos = np.arange(arrivals.size) + np.concatenate(([0], np.cumsum(long[:-1])))
    starts[pos] = arrivals
    ends[pos] = np.minimum(arrivals + rule.tau, nxt)
    flip = pos[long] + 1
    starts[flip] = arrivals[long] + rule.tau
    ends[flip] = nxt[long]
    failed[flip] = True
    return starts, ends, failed
