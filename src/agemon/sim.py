"""Event-trace generation for a sensor that streams updates through an
M/M/1 FCFS queue and intermittently fails.

A run is a sequence of periods on one absolute clock. Each period starts
with the first update generated after the previous recovery and contains:

* a working span of random length T ~ Exp(nu), holding one update at its
  start and a Poisson(lam * T) number of further updates at uniform times
  (the law of Exp(lam) generation gaps cut at T), served FCFS with Exp(mu)
  service times,
* a deterministic outage of r seconds starting at the failure. Updates
  still queued or in service at the failure are discarded; updates whose
  service completed by then were delivered to the monitor.

The next period starts exactly at recovery completion.

Periods are cut into blocks of PERIODS_PER_BLOCK, and block b draws only
from its streams SeedSequence(master_seed, spawn_key=(b, k)), one per kind
of draw k. `_simulation` draws each stream in a few array calls per block:
every clock and count first, one `_block_draws` call per block, then the
packets run by run, each run into a buffer of its own. It queues many
periods in lockstep and hands each run's departures and arrivals over where the lockstep leaves them, for
`summary.simulate_table` to read before the next run is drawn. The test
suite keeps a serial reference (tests/reference.py: each period drawn after
the one before it) and checks that the run loop reproduces it bit for bit.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SimulationLimitError, check_params

# Expected packets allowed per run, periods * (1 + lam/nu), checked before
# anything is drawn, and per period, lam * T, checked as a float against
# each block's largest before its counts are drawn: a budget of 8-byte
# cells, which `summary.simulate_table` also applies to its thresholds'
# per-period rows. Hitting it is an error, never a silent truncation.
MAX_EXPECTED_PACKETS = 10**9

# Packets drawn for one run of periods, whose queues are then solved at
# once; bounds the memory held for a run, whatever the number of periods:
# its departures, drawn into a buffer of its own, and its services, which
# become its arrivals, 8 bytes per packet each.
BLOCK_PACKETS = 1 << 20

# Periods that share one set of streams. Part of the stream contract:
# changing it changes every seeded output, unlike BLOCK_PACKETS.
PERIODS_PER_BLOCK = 4096

# Version of the seed-to-stream contract, recorded in CSV headers.
STREAM_CONTRACT = 5

# Periods still queueing below which `_lindley_lockstep` stops its numpy
# steps: inside a block one costs ~1 us (two ufunc calls) however many
# periods it updates, a Python float step ~0.15 us per packet. Not part of
# the contract: any value gives the same arrivals.
_LOCKSTEP_MIN_PERIODS = 8

# Packets of a group of whole periods (a longer period makes a group of
# its own) over which a run draws its later services and `summary` shifts
# its packets to the period starts and builds its per-delivery terms in
# place; and cells (steps x periods) of one `_lindley_lockstep` block,
# whose index, departure and service buffers take 8 * _GROUP_PACKETS bytes
# each (8 bytes per period if there are more periods); and per-period cells
# of a chunk of thresholds that `summary.summarize` scores in one call.
# Bounds all of their temporaries. Not part of any contract: any value gives
# the same bits.
_GROUP_PACKETS = 2**14

# The kinds of draw k of a block's streams spawn_key=(block, k)
_CLOCKS, _FIRST_SERVICES, _GAPS, _COUNTS, _SERVICES = range(5)


@dataclass(frozen=True)
class SimParams:
    """Model parameters for one run.

    lam, mu, nu are rates (1/seconds) for update generation, service and
    failure; r is the deterministic recovery duration in seconds. With
    require_delivery=True each period is drawn conditioned on its first
    update being delivered before the failure, so outage-only periods are
    conditioned away (off by default: faithful runs keep them).
    """

    lam: float
    mu: float
    nu: float
    r: float
    periods: int = 100_000
    master_seed: int = 1
    require_delivery: bool = False

    def __post_init__(self) -> None:
        for name in ("lam", "mu", "nu", "r"):
            object.__setattr__(self, name, float(getattr(self, name)))
        for name in ("periods", "master_seed"):
            value = getattr(self, name)
            try:
                if isinstance(value, bool):  # operator.index would read it as 0 or 1
                    raise TypeError
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ParameterError(f"{name} must be an integer, got {value!r}") from None
        if not isinstance(self.require_delivery, (bool, np.bool_)):
            raise ParameterError(f"require_delivery must be a bool, got {self.require_delivery!r}")
        object.__setattr__(self, "require_delivery", bool(self.require_delivery))
        check_params(lam=self.lam, mu=self.mu, nu=self.nu, r=self.r)
        # far beyond any run's packet budget; rejected here by name
        if not 1 <= self.periods < 2**32:
            raise ParameterError(f"periods must be in [1, 2**32), got {self.periods}")
        if not 0 <= self.master_seed < 2**64:
            raise ParameterError("master_seed must be an unsigned 64-bit integer")

    @property
    def rho(self) -> float:
        return self.lam / self.mu

    @property
    def unstable_queue(self) -> bool:
        """rho >= 1: a run is still valid, but the queue has no steady state,
        so the closed forms and the optimal detector do not apply."""
        return self.rho >= 1.0

    def require_stable_queue(self) -> None:
        """Raise unless rho < 1 (needed by the closed forms and the detector)."""
        if self.unstable_queue:
            raise ParameterError(
                f"rho = lam/mu = {self.rho} must be < 1 for analytics/detection"
            )


def _lindley_lockstep(departures: np.ndarray, services: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """FCFS arrival times of several periods' queues, solved side by side.

    `departures` and `services` hold the periods' packets back to back,
    `counts` the packets per period. Step k applies a_k = max(d_k, a_{k-1})
    + s_k to every period with more than k packets. While at least
    _LOCKSTEP_MIN_PERIODS periods have a k-th packet, the steps run in numpy
    blocks: the m periods still queueing, longest first, gather their next b
    steps into (b, m) arrays, take two in-place ufunc calls per step and
    scatter the arrivals back. A block has at most max(1, _GROUP_PACKETS // m)
    steps and ends once a quarter of its periods have run out; a period's
    steps past its end use index -1, which reads the inputs' last slot and
    writes a spare slot past the end of the arrivals. The fewer periods left
    then finish one after another on Python floats. Every packet gets the
    same IEEE max and add, in its period's own order, as one period's serial
    recursion, whatever the blocks or the cutoff.

    `services` has one spare slot past the packets: the arrivals are
    written over it and returned as a view of it, with no packet-length
    array allocated. Each block gathers its cells before it scatters to
    them, and each serial tail reads its slice before it writes it, so no
    service is overwritten before it is read.
    """
    if services.size != departures.size + 1:  # index -1 would overwrite a live service
        raise ParameterError("services need one spare slot past the packets")
    # any order of equal counts gives the same arrivals, so the sort need not
    # be stable (a stable one took 3.7x as long on 4096 periods)
    order = np.argsort(-counts)
    heads = (np.cumsum(counts) - counts)[order]
    longest = counts[order]
    # active[k]: periods with more than k packets (a prefix of `order`)
    active = np.searchsorted(-longest, -np.arange(longest[0]), side="left")
    steps = int(np.searchsorted(-active, -_LOCKSTEP_MIN_PERIODS, side="right"))
    # one block's indices, departures and services, reused block after block
    size = max(_GROUP_PACKETS, counts.size) if steps else 0
    index_buffer, d_buffer, s_buffer = np.empty(size, dtype=np.int64), np.empty(size), np.empty(size)
    arrivals = services
    last = np.full(counts.size, -np.inf)
    falling = (-active[:steps]).tolist()
    ends = heads + longest
    k = 0
    while k < steps:
        m = -falling[k]
        stop = min(k + max(1, _GROUP_PACKETS // m), bisect_left(falling, -(3 * m // 4), k + 1))
        b = stop - k
        idx = index_buffer[:b * m].reshape(b, m)
        np.add(np.arange(k, stop)[:, None], heads[:m], out=idx)
        # periods [full, m) run out within the block
        full = -falling[stop - 1]
        if full < m:
            ended = idx[:, full:]
            np.copyto(ended, -1, where=ended >= ends[full:m])
        # "wrap" reads index -1 as plain indexing does; "raise" would copy
        # each gather through a temporary before filling its buffer
        d = departures.take(idx, out=d_buffer[:b * m].reshape(b, m), mode="wrap")
        s = services.take(idx, out=s_buffer[:b * m].reshape(b, m), mode="wrap")
        current = last[:m]
        for d_k, s_k in zip(d, s):
            np.maximum(d_k, current, out=d_k)
            current = np.add(d_k, s_k, out=s_k)
        last[:m] = current
        arrivals[idx] = s
        k = stop
    arrivals = arrivals[:-1]
    tail = int(active[steps]) if steps < active.size else 0
    for head, count, a in zip(heads[:tail].tolist(), longest[:tail].tolist(), last[:tail].tolist()):
        lo, hi = head + steps, head + count
        run = []
        for d, s in zip(departures[lo:hi].tolist(), services[lo:hi].tolist()):
            a = (d if d > a else a) + s
            run.append(a)
        arrivals[lo:hi] = run
    return arrivals


@dataclass(frozen=True, eq=False)
class _Periods:
    """A run's per-period arrays, indexed by period. generated_counts[p]
    counts all of period p's updates and delivered_counts[p] those
    delivered, so generated - delivered were discarded. The true sensor
    state is failed exactly on the union of [failure_times[p],
    recovery_ends[p]) and working elsewhere."""

    params: SimParams
    start_times: np.ndarray
    failure_times: np.ndarray
    recovery_ends: np.ndarray
    times_to_failure: np.ndarray
    delivered_counts: np.ndarray
    generated_counts: np.ndarray


def _stream(master_seed: int, block: int, kind: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(block, kind)))


def _check_limit(value: float, cap: str, what: str) -> None:
    """Raise SimulationLimitError "<what>, over the cap <cap> = <its value>"
    if `value` passes the module constant named `cap`, read at the call."""
    if value > globals()[cap]:
        raise SimulationLimitError(f"{what}, over the cap {cap} = {globals()[cap]}")


def _block_draws(params: SimParams, block: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(time to failure, first service, generated count) of every period of
    block b, one draw each per period from streams (b, 0), (b, 1) and (b, 3).

    With params.require_delivery each period is conditioned on its first
    update being delivered, first service S <= clock T. Given that, S ~
    Exp(mu + nu) and T - S ~ Exp(nu) (memorylessness), so S is drawn at rate
    mu + nu and added to the Exp(nu) draw; the rest of a period depends only
    on its clock. Each count, the update at the period start and a
    Poisson(lam * T) number after it, is drawn once the block's largest
    lam * T is within MAX_EXPECTED_PACKETS.
    """
    size = min(PERIODS_PER_BLOCK, params.periods - block * PERIODS_PER_BLOCK)
    clocks = _exponential(_stream(params.master_seed, block, _CLOCKS), 1.0 / params.nu, np.empty(size))
    rate = params.mu + params.nu if params.require_delivery else params.mu
    firsts = _exponential(_stream(params.master_seed, block, _FIRST_SERVICES), 1.0 / rate, np.empty(size))
    if params.require_delivery:
        clocks += firsts
    # the float product, before any count is drawn
    longest = params.lam * float(clocks.max())
    _check_limit(longest, "MAX_EXPECTED_PACKETS", f"a period expects {longest:.3g} updates, lam * T")
    return clocks, firsts, _stream(params.master_seed, block, _COUNTS).poisson(params.lam * clocks) + 1


def _exponential(rng: np.random.Generator, scale: float, out: np.ndarray) -> np.ndarray:
    """rng.exponential(scale, out.size) drawn into `out` and returned, bit
    for bit: that draw is scale times the standard one, and scaling in
    place skips a pass."""
    rng.standard_exponential(out=out)
    out *= scale
    return out


def _prefix_lengths(values: np.ndarray, heads: np.ndarray, lengths: np.ndarray,
                    bounds: np.ndarray) -> np.ndarray:
    """For each slice values[heads[p]:][:lengths[p]], whose entries never
    decrease, how many of its entries are <= bounds[p]: a prefix, found by
    one binary search over all slices at once."""
    ends = heads + lengths
    last = heads - 1  # the last entry known to pass
    step = (1 << int(lengths.max()).bit_length()) >> 1
    while step:
        probe = last + step
        last += step * ((probe < ends) & (values.take(probe, mode="clip") <= bounds))
        step >>= 1
    return last + 1 - heads


def _departures(clocks: np.ndarray, counts: np.ndarray, sums: np.ndarray,
                gaps_rng: np.random.Generator) -> np.ndarray:
    """The departure times relative to each period start, back to back, of
    consecutive periods of one block, drawn into `sums`: counts.sum() + 1
    slots, the first holding the block's running spacing sum before them.

    Period p, of counts[p] = N + 1 updates, takes the next N + 1 standard
    exponential spacings of the block's stream k = 2. They are drawn into
    the slots behind the first and summed in place over the whole block in
    draw order (one cumsum); C_i is the period's i-th sum less the sum at
    its start, so C_0 = 0. Its departures are min(T, C_i * (T / C_{N+1}))
    for i = 0..N: 0, then N sorted uniform times on [0, T]. The clip holds
    a departure at T when rounding pushes it past (its last spacings can be
    lost below half an ulp of the running sum), and a span C_{N+1} that
    rounds to 0 puts every departure at 0. The slots less the last become
    the departures in place and are returned as a view; the last keeps the
    running sum after them.
    """
    gaps_rng.standard_exponential(out=sums[1:])
    np.cumsum(sums, out=sums)
    # each period's start sum, then the sum after its last spacing
    ends = np.cumsum(counts)
    marks = sums[np.append(0, ends)]
    spans = marks[1:] - marks[:-1]
    scales = np.divide(clocks, spans, out=np.zeros(clocks.size), where=spans > 0)
    departures = sums[:-1]
    departures -= np.repeat(marks[:-1], counts)
    departures *= np.repeat(scales, counts)
    # a period's departures never decrease, so only one whose last passes
    # its clock has any to clip
    for p in np.flatnonzero(departures[ends - 1] > clocks).tolist():
        period = departures[ends[p] - counts[p]:ends[p]]
        np.minimum(period, clocks[p], out=period)
    return departures


def _groups(counts: np.ndarray):
    """(a, b, lo, hi) for consecutive groups of whole slices of back-to-back
    items: slices a..b-1, of counts[a:b] items each, hold items lo..hi-1, at
    most _GROUP_PACKETS of them unless one slice alone holds more."""
    ends = np.cumsum(counts)
    starts = ends - counts
    a = 0
    while a < counts.size:
        b = max(a + 1, int(np.searchsorted(ends, starts[a] + _GROUP_PACKETS, side="right")))
        yield a, b, int(starts[a]), int(ends[b - 1])
        a = b


def _services(rng: np.random.Generator, scale: float, firsts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The services of consecutive periods of one block, back to back: each
    period's first service (drawn with its clock), then its later ones,
    drawn from the block's stream k = 4 in period order; and one spare slot
    past them for `_lindley_lockstep`. Each group of whole periods draws its
    later services into one reused buffer and scatters them into place."""
    services = np.empty(int(counts.sum()) + 1)
    services[-1] = 0.0
    drawn = np.empty(min(services.size, max(_GROUP_PACKETS, int(counts.max()))))
    for a, b, lo, hi in _groups(counts):
        heads = np.cumsum(counts[a:b]) - counts[a:b]
        later = np.ones(hi - lo, dtype=bool)
        later[heads] = False
        group = services[lo:hi]
        group[later] = _exponential(rng, scale, drawn[:hi - lo - (b - a)])
        group[heads] = firsts[a:b]
    return services


def _simulation(params: SimParams):
    """(the per-period arrays, as a `_Periods` record; the run loop, a
    generator).

    Every limit is checked and every clock and count drawn before this
    returns: the run's packets before any draw, then one `_block_draws`
    call per block, written into the run's arrays, then the run's end time,
    which must be finite. The run loop fills delivered_counts and yields, run by run, (i, j,
    departures, arrivals): the generation and arrival times of every packet
    of periods i..j-1, exactly generated_counts[i:j].sum() of each,
    relative to each period's start, period after period; the first
    delivered_counts[p] packets of period p were delivered. A consumer may
    write over either: the loop writes neither again, and drops both before
    it draws the next run.
    """
    n = params.periods
    expected = n * (1.0 + params.lam / params.nu)
    _check_limit(expected, "MAX_EXPECTED_PACKETS", f"the run expects {expected:.3g} packets, periods * (1 + lam/nu)")
    times_to_failure, first_services = np.empty(n), np.empty(n)
    generated_counts = np.empty(n, dtype=np.int64)
    for block, lo in enumerate(range(0, n, PERIODS_PER_BLOCK)):
        span = slice(lo, lo + PERIODS_PER_BLOCK)
        times_to_failure[span], first_services[span], generated_counts[span] = _block_draws(params, block)
    # T_0, r, T_1, r, ... added left to right: each failure is start + T and
    # each recovery end failure + r, as one period after another computes them
    with np.errstate(over="ignore"):  # an end past float64 is refused below
        bounds = np.cumsum(np.column_stack((times_to_failure, np.full(n, params.r))))
    if not np.isfinite(bounds[-1]):
        raise ParameterError(f"the run's end time, the sum of its {n} clocks and recoveries, left the float64 range")
    failure_times, recovery_ends = bounds.reshape(n, 2).T.copy()
    periods = _Periods(
        params=params,
        start_times=np.concatenate(([0.0], recovery_ends[:-1])),
        failure_times=failure_times,
        recovery_ends=recovery_ends,
        times_to_failure=times_to_failure,
        delivered_counts=np.empty(n, dtype=np.int64),
        generated_counts=generated_counts,
    )
    return periods, _runs(periods, first_services)


def _runs(periods: _Periods, first_services: np.ndarray):
    """The run loop of `_simulation`: each block draws its spacings and
    services in runs of about BLOCK_PACKETS packets, each run queued as soon
    as it is drawn. A run of `size` packets draws its departures into a
    buffer of size + 1 slots, whose first slot holds the block's running
    spacing sum before it and whose last keeps the sum after it for the
    next run, and yields views of exactly `size` departures and arrivals,
    neither spare slot included."""
    params = periods.params
    n = params.periods
    clocks, generated_counts = periods.times_to_failure, periods.generated_counts
    for block, lo in enumerate(range(0, n, PERIODS_PER_BLOCK)):
        hi = min(lo + PERIODS_PER_BLOCK, n)
        gaps_rng, services_rng = (_stream(params.master_seed, block, kind) for kind in (_GAPS, _SERVICES))
        # runs of consecutive periods of about BLOCK_PACKETS packets
        block_counts = generated_counts[lo:hi]
        cuts = lo + 1 + np.flatnonzero(np.diff((np.cumsum(block_counts) - block_counts) // BLOCK_PACKETS))
        spacing_sum = 0.0  # the block's spacing sum starts afresh
        for i, j in zip((lo, *cuts.tolist()), (*cuts.tolist(), hi)):
            counts = generated_counts[i:j]
            buffer = np.empty(int(counts.sum()) + 1)
            buffer[0] = spacing_sum
            # the departures are laid out before the services are allocated,
            # so a run holds at most two packet-length arrays
            departures = _departures(clocks[i:j], counts, buffer, gaps_rng)
            spacing_sum = buffer[-1]
            services = _services(services_rng, 1.0 / params.mu, first_services[i:j], counts)
            # the services become the arrivals in place
            arrivals = _lindley_lockstep(departures, services, counts)
            # arrivals increase within a period, so the delivered packets
            # (a_k <= T) are a prefix of each period's packets
            periods.delivered_counts[i:j] = _prefix_lengths(arrivals, np.cumsum(counts) - counts, counts,
                                                            clocks[i:j])
            yield i, j, departures, arrivals
            # dropped before the next run is drawn, so no two runs' buffers
            # are live at once and the next run's reuse their memory
            del buffer, departures, services, arrivals
