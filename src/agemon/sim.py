"""Event-trace generation for a sensor that streams updates through an
M/M/1 FCFS queue and intermittently fails.

A run is a sequence of periods on one absolute clock. Each period starts
with the first update generated after the previous recovery and contains:

* a working span of random length T ~ Exp(nu) in which updates are
  generated with Exp(lam) gaps and served FCFS with Exp(mu) service times,
* a deterministic outage of r seconds starting at the failure. Updates
  still queued or in service at the failure are discarded; updates whose
  service completed by then were delivered to the monitor.

The next period starts exactly at recovery completion.

Periods are cut into blocks of PERIODS_PER_BLOCK, and block b draws only
from its streams SeedSequence(master_seed, spawn_key=(b, k)), one per kind
of draw k. `simulate` draws each stream in a few array calls per block,
queues many periods in lockstep and keeps only the delivered packets. The
test suite keeps a serial reference (tests/reference.py: each period drawn
after the one before it) and checks that `simulate` reproduces it bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ParameterError, SimulationLimitError, require_finite

# Gaps a period may draw in its first chunk, 1.25 * lam * T, checked for
# every period of the run before any gap is drawn; guards pathological
# parameters (e.g. enormous lam * T). Hitting it is an error, never a
# silent truncation.
EVENT_CAP = 10**9

# Expected packets per run, periods * (1 + lam/nu), allowed before anything
# is drawn. The deliveries alone take 16 bytes each in a Timeline, so a run
# beyond it could not be held in memory.
MAX_EXPECTED_PACKETS = 10**9

# Packets drawn before `simulate` solves the pending periods' queues and
# keeps only their deliveries; bounds the transient memory held for
# discarded generations and services, whatever the number of periods.
BLOCK_PACKETS = 1 << 20

# Periods that share one set of streams. Part of the stream contract:
# changing it changes every seeded output, unlike BLOCK_PACKETS.
PERIODS_PER_BLOCK = 4096

# Version of the seed-to-stream contract, recorded in CSV headers.
STREAM_CONTRACT = 2

# Periods still queueing below which `_lindley_lockstep` stops its numpy
# steps: one costs ~2.5-5 us however many periods it updates, a Python
# float step ~0.08 us per packet. Not part of the contract: any value gives
# the same arrivals.
_LOCKSTEP_MIN_PERIODS = 32

# The kinds of draw k of a block's streams spawn_key=(block, k)
_CLOCKS, _FIRST_SERVICES, _GAPS, _REFILLS, _SERVICES = range(5)


@dataclass(frozen=True)
class SimParams:
    """Model parameters for one run.

    lam, mu, nu are rates (1/seconds) for update generation, service and
    failure; r is the deterministic recovery duration in seconds. With
    require_delivery=True each period is resampled until at least one
    update is delivered before the failure, i.e. outage-only periods are
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
        object.__setattr__(self, "periods", int(self.periods))
        object.__setattr__(self, "master_seed", int(self.master_seed))
        require_finite(lam=self.lam, mu=self.mu, nu=self.nu, r=self.r)
        for name in ("lam", "mu", "nu"):
            if not getattr(self, name) > 0.0:
                raise ParameterError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.r < 0.0:
            raise ParameterError(f"r must be >= 0, got {self.r}")
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
    + s_k to every period with more than k packets, as one numpy step while
    at least _LOCKSTEP_MIN_PERIODS periods have a k-th packet. The fewer
    periods left then finish one after another on Python floats, with the
    same IEEE max and add, so each period gets exactly the floating-point
    operations of its own serial recursion either way.
    """
    order = np.argsort(-counts, kind="stable")
    heads = (np.cumsum(counts) - counts)[order]
    longest = counts[order]
    # active[k]: periods with more than k packets (a prefix of `order`)
    active = np.searchsorted(-longest, -np.arange(longest[0]), side="left")
    steps = int(np.searchsorted(-active, -_LOCKSTEP_MIN_PERIODS, side="right"))
    arrivals = np.empty_like(departures)
    last = np.full(counts.size, -np.inf)
    for k, m in enumerate(active[:steps].tolist()):
        idx = heads[:m] + k
        current = np.maximum(departures[idx], last[:m])
        current += services[idx]
        last[:m] = current
        arrivals[idx] = current
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
class Timeline:
    """Abutting periods on one absolute clock, as flat arrays.

    Per-period arrays are indexed by period; arrival_times and
    arrival_generations hold every delivery, period after period
    (delivered_counts[p] of them for period p). generated_counts[p] counts
    all of period p's updates, so generated - delivered were discarded.
    The true sensor state is failed exactly on the union of
    [failure_times[p], recovery_ends[p]) and working elsewhere.
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
    def delivery_count(self) -> int:
        return int(self.arrival_times.size)

    @property
    def end_time(self) -> float:
        return float(self.recovery_ends[-1])


def _deliveries(
    times_to_failure: np.ndarray,
    starts: np.ndarray,
    counts: np.ndarray,
    departures: Sequence[np.ndarray],
    services: Sequence[np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(delivered counts, absolute arrival times, absolute generation times)
    of a block of periods, from their relative departures and services."""
    departures = np.concatenate(departures)
    arrivals = _lindley_lockstep(departures, np.concatenate(services), counts)
    # arrivals increase within a period, so the delivered packets (a_k <= T)
    # are a prefix of each period's packets
    delivered = arrivals <= np.repeat(times_to_failure, counts)
    delivered_counts = np.add.reduceat(delivered, np.cumsum(counts) - counts, dtype=np.int64)
    offsets = np.repeat(starts, delivered_counts)
    return delivered_counts, offsets + arrivals[delivered], offsets + departures[delivered]


def _stream(master_seed: int, block: int, kind: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(block, kind)))


def _clocks(params: SimParams) -> tuple[np.ndarray, np.ndarray]:
    """(time to failure, first service) of every period.

    Block b draws one clock per period from stream (b, 0) and one first
    service per period from (b, 1). With params.require_delivery the
    periods whose first update is lost (first service > clock) redraw both
    from the same streams, in rounds over the periods still lost, in
    period order. The rest of a period depends only on its clock, so this
    conditions the whole period on one delivery.
    """
    n = params.periods
    clocks = np.empty(n)
    firsts = np.empty(n)
    for block, lo in enumerate(range(0, n, PERIODS_PER_BLOCK)):
        hi = min(lo + PERIODS_PER_BLOCK, n)
        clock_rng = _stream(params.master_seed, block, _CLOCKS)
        first_rng = _stream(params.master_seed, block, _FIRST_SERVICES)
        clocks[lo:hi] = clock_rng.exponential(1.0 / params.nu, size=hi - lo)
        firsts[lo:hi] = first_rng.exponential(1.0 / params.mu, size=hi - lo)
        lost = lo + np.flatnonzero(firsts[lo:hi] > clocks[lo:hi])
        while params.require_delivery and lost.size:
            clocks[lost] = clock_rng.exponential(1.0 / params.nu, size=lost.size)
            firsts[lost] = first_rng.exponential(1.0 / params.mu, size=lost.size)
            lost = lost[firsts[lost] > clocks[lost]]
    return clocks, firsts


def _departures(clocks: np.ndarray, chunks: np.ndarray, total: float, gaps_rng, refills_rng,
                lam: float) -> tuple[np.ndarray, np.ndarray, float]:
    """(departure times relative to each period start, back to back;
    generations per period; the block's running gap sum after them) of
    consecutive periods of one block, given the running sum before them.

    Period p takes the next chunks[p] gaps of the block's stream k = 2.
    Its departures are 0 and its gaps' running sums up to its clock. The
    running sum is taken over the whole block in draw order (one cumsum),
    and each period subtracts the sum at its start. A period whose chunk
    ends at or before its clock draws further chunks of the same size from
    stream k = 3, continuing its own running sum, until one passes the
    clock; such periods refill in period order.
    """
    scale = 1.0 / lam
    slots = chunks + 1
    heads = np.cumsum(slots) - slots
    # a zero gap ahead of each chunk is the period's departure at 0
    sums = np.insert(gaps_rng.exponential(scale, size=int(chunks.sum())), heads - np.arange(heads.size), 0.0)
    sums[0] = total
    np.cumsum(sums, out=sums)
    total = float(sums[-1])
    sums -= np.repeat(sums[heads], slots)
    # the running sums increase, so each period keeps a prefix of its slots
    kept = sums <= np.repeat(clocks, slots)
    counts = np.add.reduceat(kept, heads, dtype=np.int64)
    departures = sums[kept]
    exhausted = np.flatnonzero(kept[heads + chunks])
    if exhausted.size:
        ends = np.cumsum(counts)[exhausted]
        extra = [_refill(sums[heads[p] + chunks[p]], clocks[p], chunks[p], refills_rng, scale) for p in exhausted]
        sizes = [part.size for part in extra]
        departures = np.insert(departures, np.repeat(ends, sizes), np.concatenate(extra))
        counts[exhausted] += sizes
    return departures, counts, total


def _refill(last: float, clock: float, chunk: int, rng: np.random.Generator, scale: float) -> np.ndarray:
    """The departures after `last` (<= clock) of a period whose chunk ran out."""
    parts = []
    while last <= clock:
        run = np.cumsum(np.concatenate(([last], rng.exponential(scale, size=chunk))))[1:]
        parts.append(run[run <= clock])
        last = run[-1]
    return np.concatenate(parts)


def simulate(params: SimParams) -> Timeline:
    """Run `params.periods` abutting periods starting at t = 0.

    The result is a pure function of (master_seed, params), and block b
    only draws from its own streams, so blocks built in any order and laid
    end to end reproduce it bit for bit. All clocks are drawn first, then
    each block's gaps and services in runs of about BLOCK_PACKETS; every
    BLOCK_PACKETS generations are queued in lockstep.
    """
    n = params.periods
    expected = n * (1.0 + params.lam / params.nu)
    if expected > MAX_EXPECTED_PACKETS:
        raise SimulationLimitError(
            f"the run expects {expected:.3g} packets, periods * (1 + lam/nu), "
            f"over the cap MAX_EXPECTED_PACKETS = {MAX_EXPECTED_PACKETS}"
        )
    times_to_failure, first_services = _clocks(params)
    # the float product: no chunk size is converted or allocated before this
    longest = 1.25 * params.lam * float(times_to_failure.max())
    if longest > EVENT_CAP:
        raise SimulationLimitError(
            f"a period would draw {longest:.3g} gaps, over the per-period "
            f"generation cap EVENT_CAP = {EVENT_CAP}"
        )
    # T_0, r, T_1, r, ... added left to right: each failure is start + T and
    # each recovery end failure + r, as one period after another computes them
    bounds = np.cumsum(np.column_stack((times_to_failure, np.full(n, params.r))))
    failure_times, recovery_ends = bounds.reshape(n, 2).T.copy()
    start_times = np.concatenate(([0.0], recovery_ends[:-1]))
    generated_counts = np.empty(n, dtype=np.int64)
    delivered_counts = np.empty(n, dtype=np.int64)
    # grown in place batch by batch: a final concatenation of per-batch
    # parts would briefly hold the run's largest arrays twice
    arrival_times = np.empty(0)
    arrival_generations = np.empty(0)
    departures: list[np.ndarray] = []
    services: list[np.ndarray] = []
    queued = 0
    packets = 0
    for block, lo in enumerate(range(0, n, PERIODS_PER_BLOCK)):
        hi = min(lo + PERIODS_PER_BLOCK, n)
        gaps_rng, refills_rng, services_rng = (
            _stream(params.master_seed, block, kind) for kind in (_GAPS, _REFILLS, _SERVICES)
        )
        chunks = (1.25 * params.lam * times_to_failure[lo:hi]).astype(np.int64) + 8
        # runs of consecutive periods that draw about BLOCK_PACKETS gaps
        cuts = lo + 1 + np.flatnonzero(np.diff((np.cumsum(chunks) - chunks) // BLOCK_PACKETS))
        total = 0.0
        for i, j in zip((lo, *cuts.tolist()), (*cuts.tolist(), hi)):
            run_departures, counts, total = _departures(
                times_to_failure[i:j], chunks[i - lo:j - lo], total, gaps_rng, refills_rng, params.lam,
            )
            # each period's first service was drawn with its clock
            heads = np.cumsum(counts) - counts
            later = services_rng.exponential(1.0 / params.mu, size=run_departures.size - (j - i))
            services.append(np.insert(later, heads - np.arange(j - i), first_services[i:j]))
            departures.append(run_departures)
            generated_counts[i:j] = counts
            packets += run_departures.size
            if packets < BLOCK_PACKETS and j < n:
                continue
            batch = slice(queued, j)
            delivered_counts[batch], arrivals, generations = _deliveries(
                times_to_failure[batch], start_times[batch], generated_counts[batch],
                departures, services,
            )
            kept = arrival_times.size
            # refcheck=False is safe: both arrays are locals and no view of
            # them outlives a statement. The check itself would fail under
            # any sys.setprofile hook (cProfile, sampling profilers), which
            # holds the bound resize method and so one more array reference.
            arrival_times.resize(kept + arrivals.size, refcheck=False)
            arrival_generations.resize(kept + arrivals.size, refcheck=False)
            arrival_times[kept:] = arrivals
            arrival_generations[kept:] = generations
            departures, services = [], []
            queued, packets = j, 0
    return Timeline(
        params=params,
        start_times=start_times,
        failure_times=failure_times,
        recovery_ends=recovery_ends,
        times_to_failure=times_to_failure,
        arrival_times=arrival_times,
        arrival_generations=arrival_generations,
        delivered_counts=delivered_counts,
        generated_counts=generated_counts,
    )
