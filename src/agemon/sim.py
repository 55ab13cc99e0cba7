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

`simulate` seeds every period's substreams at once, draws period by
period, solves the queues of a block of periods in lockstep and appends
only the delivered packets to flat arrays. The test suite keeps a
per-period reference (tests/reference.py: each period generated alone from
its own substreams) and checks that `simulate` reproduces it bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import ParameterError, SimulationLimitError, require_finite

# Generations allowed per period before aborting; guards pathological
# parameters (e.g. enormous lam * T). Hitting it is an error, never a
# silent truncation.
EVENT_CAP = 10**9

# Packets drawn before `simulate` solves the pending periods' queues and
# keeps only their deliveries; bounds the transient memory held for
# discarded generations and services, whatever the number of periods.
BLOCK_PACKETS = 1 << 20

# SeedSequence's hash constants (numpy.random.bit_generator)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


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
        # each period index is one uint32 word of its substreams' spawn key
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


def _substream_words(master_seed: int, indices: np.ndarray) -> np.ndarray:
    """SeedSequence(master_seed, spawn_key=(p, k)).generate_state(4, np.uint64)
    for every p in `indices` and k = 0, 1, 2, as an (n, 3, 4) uint64 array.

    Period p draws only from these three substreams: k = 0 (failure clock),
    1 (generation gaps), 2 (service times). Any period can therefore be
    generated in isolation, and parallel or out-of-order evaluation
    reproduces a serial run bit for bit. Dedicating a stream to each draw
    type also keeps sample paths coupled across parameter sweeps that share
    a master seed (common random numbers).

    A vectorised transcription of SeedSequence's hash-mix. Its entropy is the
    seed's two uint32 words, zero-padded to the 4-word pool (numpy pads when
    a spawn key is present), then p and k, one uint32 word each. Only the
    last two words differ between substreams.
    """
    u32 = np.uint32
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ u32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * u32(hash_const)
        return value ^ value >> u32(16)

    def mix(x, y):
        result = u32(_MIX_MULT_L) * x - u32(_MIX_MULT_R) * y
        return result ^ result >> u32(16)

    with np.errstate(over="ignore"):
        pool = [hashmix(u32(word)) for word in (master_seed & _MASK32, master_seed >> 32, 0, 0)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        spawn_key = (indices.astype(u32)[:, None], np.arange(3, dtype=u32))
        for word in spawn_key:
            for dst in range(4):
                pool[dst] = mix(pool[dst], hashmix(word))
        hash_const = _INIT_B
        state = np.empty((len(indices), 3, 8), dtype=u32)
        for i in range(8):
            value = pool[i % 4] ^ u32(hash_const)
            hash_const = hash_const * _MULT_B & _MASK32
            value = value * u32(hash_const)
            state[..., i] = value ^ value >> u32(16)
    # pairs of uint32 words read as little-endian uint64, as SeedSequence does
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


class _StateWords(ISeedSequence):
    """Hands PCG64 its precomputed generate_state(4, np.uint64) words (the
    only request PCG64 makes of a seed sequence)."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _streams_from_words(words: np.ndarray) -> tuple[np.random.Generator, ...]:
    """A period's (failure, gaps, services) generators: each the one
    np.random.default_rng(SeedSequence(master_seed, spawn_key=(p, k))) builds,
    seeded from its precomputed state words."""
    return tuple(np.random.Generator(np.random.PCG64(_StateWords(w))) for w in words)


def _lindley_lockstep(departures: np.ndarray, services: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """FCFS arrival times of several periods' queues, solved side by side.

    `departures` and `services` hold the periods' packets back to back,
    `counts` the packets per period. Step k applies a_k = max(d_k, a_{k-1})
    + s_k to every period with more than k packets, so each period gets
    exactly the floating-point operations of its own serial recursion.
    """
    order = np.argsort(-counts, kind="stable")
    heads = (np.cumsum(counts) - counts)[order]
    longest = counts[order]
    # active[k]: periods with more than k packets (a prefix of `order`)
    active = np.searchsorted(-longest, -np.arange(longest[0]), side="left")
    arrivals = np.empty_like(departures)
    last = np.full(counts.size, -np.inf)
    for k, m in enumerate(active.tolist()):
        idx = heads[:m] + k
        current = np.maximum(departures[idx], last[:m])
        current += services[idx]
        last[:m] = current
        arrivals[idx] = current
    return arrivals


def _generation_times(rng: np.random.Generator, rate: float, horizon: float) -> np.ndarray:
    """Departure times relative to the period start: 0, then Exp(rate) gaps,
    stopping at the first departure that would land beyond `horizon`."""
    parts = [np.zeros(1)]
    count = 1
    last = 0.0
    # bounded draw buffer: large enough to usually finish in one pass, small
    # enough that pathological rate * horizon hits EVENT_CAP, not the allocator
    chunk = min(max(8, int(1.25 * rate * horizon) + 8), 1 << 22)
    while True:
        cum = last + np.cumsum(rng.exponential(1.0 / rate, size=chunk))
        keep = int(np.searchsorted(cum, horizon, side="right"))
        if keep:
            parts.append(cum[:keep])
            count += keep
            if count > EVENT_CAP:
                raise SimulationLimitError(
                    f"period exceeded the {EVENT_CAP} generation cap"
                )
        if keep < chunk:
            return np.concatenate(parts)
        last = float(cum[-1])


def _draw_period(params: SimParams, streams: Sequence) -> tuple[float, np.ndarray, np.ndarray]:
    """(time to failure, relative departure times, services) of one period,
    from its (failure, gaps, services) streams.

    Draw order is fixed (failure time, then generation gaps, then one
    service per generation) so a period is a pure function of its
    substreams. With params.require_delivery the whole period is redrawn
    until the first update, which departs at 0 into an empty queue, is
    delivered: its service completes by the failure.
    """
    failure_rng, gaps_rng, services_rng = streams
    while True:
        T = failure_rng.exponential(1.0 / params.nu)
        rel_gens = _generation_times(gaps_rng, params.lam, T)
        services = services_rng.exponential(1.0 / params.mu, size=rel_gens.size)
        if services[0] <= T or not params.require_delivery:
            return T, rel_gens, services


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


def simulate(params: SimParams) -> Timeline:
    """Run `params.periods` abutting periods starting at t = 0.

    The result is a pure function of (master_seed, params): period p only
    consumes draws from its own substreams (see _substream_words), so it
    equals each period generated alone at its start time, bit for bit.
    Periods are drawn one at a time; each block of about BLOCK_PACKETS
    generations is queued in lockstep and only its deliveries are kept.
    """
    n = params.periods
    words = _substream_words(params.master_seed, np.arange(n, dtype=np.uint32))
    times_to_failure = np.empty(n)
    start_times = np.empty(n)
    failure_times = np.empty(n)
    recovery_ends = np.empty(n)
    generated_counts = np.empty(n, dtype=np.int64)
    delivered_counts = np.empty(n, dtype=np.int64)
    # grown in place block by block: a final concatenation of per-block
    # parts would briefly hold the run's largest arrays twice
    arrival_times = np.empty(0)
    arrival_generations = np.empty(0)
    departures: list[np.ndarray] = []
    services: list[np.ndarray] = []
    block_start = 0
    block_packets = 0
    start = 0.0
    for index in range(n):
        T, rel_gens, period_services = _draw_period(params, _streams_from_words(words[index]))
        failure = start + T
        times_to_failure[index] = T
        start_times[index] = start
        failure_times[index] = failure
        start = failure + params.r
        recovery_ends[index] = start
        generated_counts[index] = rel_gens.size
        departures.append(rel_gens)
        services.append(period_services)
        block_packets += rel_gens.size
        if block_packets >= BLOCK_PACKETS or index == n - 1:
            block = slice(block_start, index + 1)
            delivered_counts[block], arrivals, generations = _deliveries(
                times_to_failure[block], start_times[block], generated_counts[block],
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
            block_start, block_packets = index + 1, 0
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
