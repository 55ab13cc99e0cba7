import concurrent.futures
import cProfile
import dataclasses
import math
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

import agemon.sim as sim
from agemon import ParameterError, SimParams, SimulationLimitError, Timeline, simulate
from conftest import DEFAULTS, SEED
from reference import (
    block_count,
    block_draws,
    block_streams,
    block_traces,
    generate_period,
    lay_end_to_end,
    lindley_arrival_times,
    reference_timeline,
    timeline_from_periods,
)


class TestParams:
    @pytest.mark.parametrize("bad", [
        dict(lam=0.0), dict(lam=-1.0), dict(mu=0.0), dict(nu=-0.1),
        dict(r=-1.0), dict(periods=0), dict(master_seed=-1), dict(master_seed=2**64),
        dict(lam=math.inf), dict(lam=-math.inf), dict(mu=math.inf), dict(nu=math.inf),
        dict(r=math.inf), dict(r=-math.inf), dict(r=math.nan), dict(periods=2**32),
    ])
    def test_invalid_rejected(self, bad):
        with pytest.raises(ParameterError, match=next(iter(bad))):
            SimParams(**{**DEFAULTS, "periods": 10, **bad})

    def test_rho_and_stability(self):
        p = SimParams(**DEFAULTS, periods=1)
        assert p.rho == 0.5
        p.require_stable_queue()
        unstable = SimParams(lam=2.0, mu=1.0, nu=0.005, r=20, periods=1)
        with pytest.raises(ParameterError):
            unstable.require_stable_queue()

    def test_unstable_queue_flagged_but_simulable(self):
        tl = simulate(SimParams(lam=1.5, mu=1.0, nu=0.05, r=5, periods=20, master_seed=3))
        assert tl.params.unstable_queue
        assert tl.start_times.size == 20


def event_driven_arrivals(departures, services):
    """Independent oracle: a single-server event loop over the same draws."""
    arrivals = []
    waiting = []        # service times of queued packets, FIFO
    busy_until = None   # completion time of the packet in service
    pending = list(zip(departures.tolist(), services.tolist()))
    i = 0
    while i < len(pending) or waiting or busy_until is not None:
        next_dep = pending[i][0] if i < len(pending) else None
        if busy_until is not None and (next_dep is None or busy_until <= next_dep):
            arrivals.append(busy_until)
            busy_until = busy_until + waiting.pop(0) if waiting else None
        else:
            d, svc = pending[i]
            i += 1
            if busy_until is None:
                busy_until = d + svc
            else:
                waiting.append(svc)
    return np.asarray(arrivals)


class TestLindley:
    def test_recursion_by_hand(self):
        d = np.array([0.0, 1.0, 1.5])
        s = np.array([2.0, 0.4, 1.0])
        assert lindley_arrival_times(d, s).tolist() == [2.0, 2.4, 3.4]

    def test_matches_event_driven_queue_exactly(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 60))
            d = np.cumsum(rng.exponential(2.0, size=n))
            s = rng.exponential(1.0, size=n)
            direct = lindley_arrival_times(d, s)
            looped = event_driven_arrivals(d, s)
            # exact float equality: both paths perform the same max/add ops
            assert np.array_equal(direct, looped)

    @pytest.mark.parametrize("cutoff", [None, 1, 10**6])
    def test_ragged_periods_match_event_driven_queue(self, monkeypatch, cutoff):
        # 96 periods of 1-299 packets in one call: the longest run serially
        # after the numpy steps; cutoff 1 steps every packet in numpy, and
        # a cutoff above the period count runs every period serially
        rng = np.random.default_rng(8)
        counts = rng.integers(1, 300, size=96)
        assert np.sort(counts)[-sim._LOCKSTEP_MIN_PERIODS] < counts.max()
        if cutoff is not None:
            monkeypatch.setattr(sim, "_LOCKSTEP_MIN_PERIODS", cutoff)
        d = [np.cumsum(rng.exponential(2.0, size=c)) for c in counts]
        s = [rng.exponential(1.0, size=c) for c in counts]
        arrivals = sim._lindley_lockstep(np.concatenate(d), np.concatenate(s), counts)
        for p, got in enumerate(np.split(arrivals, np.cumsum(counts)[:-1])):
            assert np.array_equal(got, event_driven_arrivals(d[p], s[p])), p

    def test_mismatched_lengths(self):
        with pytest.raises(ParameterError):
            lindley_arrival_times(np.zeros(3), np.zeros(2))


class TestGeneratePeriod:
    def test_fixed_draws_all_delivered(self):
        # d=(0, 1.0, 1.5), S=(2.0, 0.4, 1.0), T=5, r=2
        params = SimParams(lam=1.0, mu=1.0, nu=1.0, r=2.0, periods=1)
        tr = generate_period(params, 5.0, [0.0, 1.0, 1.5], [2.0, 0.4, 1.0])
        assert tr.generations.tolist() == [0.0, 1.0, 1.5]
        assert tr.arrival_times.tolist() == [2.0, 2.4, 3.4]
        assert tr.discarded_count == 0
        assert tr.recovery_end == 7.0
        assert tr.failure_time == 5.0

    def test_failure_before_first_service(self):
        params = SimParams(lam=1.0, mu=1.0, nu=1.0, r=1.0, periods=1)
        tr = generate_period(params, 2.0, [0.0], [3.0])
        assert tr.arrival_times.size == 0
        assert tr.discarded_count == 1
        assert tr.recovery_end == 3.0

    def test_in_service_packet_discarded_not_completed(self):
        # second packet is mid-service when the failure hits
        params = SimParams(lam=1.0, mu=1.0, nu=1.0, r=1.0, periods=1)
        tr = generate_period(params, 3.0, [0.0, 1.0], [2.0, 5.0])
        assert tr.arrival_times.tolist() == [2.0]
        assert tr.discarded_count == 1

    def test_duration_is_draw_plus_recovery(self):
        params = SimParams(**DEFAULTS, periods=20, master_seed=11)
        for idx, draws in enumerate(block_draws(params, 0)[0]):
            tr = generate_period(params, *draws, start=float(idx))
            assert tr.failure_time == tr.start_time + tr.time_to_failure
            assert tr.recovery_end == tr.failure_time + params.r
            assert tr.recovery_duration == params.r

    def test_structure_invariants(self):
        params = SimParams(**DEFAULTS, periods=200, master_seed=2)
        for draws in block_draws(params, 0)[0]:
            tr = generate_period(params, *draws, start=5.0)
            assert tr.generations[0] == 5.0
            assert np.all(np.diff(tr.generations) > 0)
            assert np.all(tr.generations <= tr.failure_time)
            assert np.all(np.diff(tr.arrival_times) > 0)
            assert tr.arrival_times.size == 0 or tr.arrival_times[-1] <= tr.failure_time
            # conservation
            assert tr.generations.size == tr.arrival_times.size + tr.discarded_count
            # deliveries satisfy the queue recursion on the delivered prefix
            if tr.arrival_times.size:
                waits = tr.arrival_times - tr.delivery_generations
                assert np.all(waits > 0)

    def test_require_delivery_conditions_out_empty_periods(self):
        base = SimParams(lam=0.5, mu=1.0, nu=0.5, r=2.0, periods=300, master_seed=9)
        plain = simulate(base)
        assert np.any(plain.delivered_counts == 0)
        conditioned = simulate(SimParams(lam=0.5, mu=1.0, nu=0.5, r=2.0, periods=300,
                                         master_seed=9, require_delivery=True))
        assert np.all(conditioned.delivered_counts > 0)

    def test_event_cap(self, monkeypatch):
        monkeypatch.setattr(sim, "EVENT_CAP", 10)
        params = SimParams(lam=5.0, mu=1.0, nu=0.01, r=1.0, periods=1, master_seed=1)
        with pytest.raises(SimulationLimitError, match="EVENT_CAP = 10"):
            simulate(params)

    @pytest.mark.parametrize("params, cap", [
        # expects 1e18 packets: refused before any draw
        (SimParams(lam=1e9, mu=1.0, nu=1e-9, r=1.0, periods=1), "MAX_EXPECTED_PACKETS"),
        # expects 8e8 packets, within the run's budget, but this seed's
        # clock (~2.7e9 s) asks for a 3.4e9-gap chunk
        (SimParams(lam=1.0, mu=1.0, nu=1.25e-9, r=1.0, periods=1, master_seed=2), "EVENT_CAP"),
    ])
    def test_limits_trip_before_allocating(self, params, cap):
        tracemalloc.start()
        try:
            with pytest.raises(SimulationLimitError, match=cap):
                simulate(params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestSimulate:
    def test_single_period_starts_at_zero(self):
        tl = simulate(SimParams(**DEFAULTS, periods=1, master_seed=4))
        assert tl.start_times.size == 1
        assert tl.start_times[0] == 0.0

    def test_abutting_boundaries(self, small_timeline):
        starts = small_timeline.start_times
        ends = small_timeline.recovery_ends
        assert np.array_equal(starts[1:], ends[:-1])

    def test_deterministic_for_seed(self):
        p = SimParams(**DEFAULTS, periods=50, master_seed=123)
        a, b = simulate(p), simulate(p)
        assert np.array_equal(a.arrival_times, b.arrival_times)
        assert np.array_equal(a.failure_times, b.failure_times)
        assert np.array_equal(a.arrival_generations, b.arrival_generations)

    @mock.patch.object(sim, "PERIODS_PER_BLOCK", 7)
    def test_order_and_parallelism_independent(self):
        """Blocks generated out of order in a thread pool, each from t = 0,
        then shifted into place, reproduce the serial run bit for bit."""
        p = SimParams(**DEFAULTS, periods=40, master_seed=77)
        serial = simulate(p)
        order = list(range(block_count(p)))
        random.Random(0).shuffle(order)
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            built = dict(pool.map(lambda block: (block, block_traces(p, block)), order))
        assert len(built) == 6
        parallel = lay_end_to_end(p, [trace for block in sorted(built) for trace in built[block]])
        assert_same_timeline(serial, parallel)

    def test_mean_period_duration(self, medium_timeline):
        durations = medium_timeline.times_to_failure + DEFAULTS["r"]
        expected = 1.0 / DEFAULTS["nu"] + DEFAULTS["r"]
        assert abs(durations.mean() / expected - 1.0) < 0.02

    def test_non_abutting_rejected(self):
        p = SimParams(**DEFAULTS, periods=2, master_seed=1)
        first, second = block_draws(p, 0)[0]
        t0 = generate_period(p, *first, 0.0)
        t1 = generate_period(p, *second, t0.recovery_end + 1.0)
        with pytest.raises(ParameterError):
            timeline_from_periods(p, [t0, t1])


def assert_same_timeline(a, b):
    """Every field equal, arrays bit for bit and of the same dtype."""
    for field in dataclasses.fields(Timeline):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype, field.name
            assert np.array_equal(x, y), field.name
        else:
            assert x == y, field.name


class TestBatchedSimulate:
    SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, SEED]
    # a small packet budget so that a 40-period default run spans ~8 batches
    BUDGET = 500
    MULTI_BLOCK = SimParams(**DEFAULTS, periods=40, master_seed=SEED)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_first_draws_match_period_streams(self, seed):
        """Each period draws from its block's streams, spawn_key=(block, k):
        the first, the second and the last block a run can have."""
        for block in (0, 1, (2**32 - 2) // sim.PERIODS_PER_BLOCK):
            for k, reference in enumerate(block_streams(seed, block)):
                mine = sim._stream(seed, block, k)
                assert mine.exponential(1.0, size=16).tolist() == reference.exponential(1.0, size=16).tolist()

    @settings(max_examples=40, deadline=None)
    @given(
        lam=st.floats(0.05, 2.0),
        mu=st.floats(0.2, 2.0),
        nu=st.floats(0.01, 1.0),
        r=st.floats(0.0, 30.0),
        periods=st.integers(1, 25),
        seed=st.integers(0, 2**64 - 1),
        require_delivery=st.booleans(),
        block_packets=st.sampled_from([1, 7, 64, sim.BLOCK_PACKETS]),
        periods_per_block=st.sampled_from([1, 4, 16, sim.PERIODS_PER_BLOCK]),
    )
    # rho >= 1; periods with no delivery (see the require_delivery test),
    # then the same run conditioned over several blocks; one period; a
    # refill in the last of seven blocks; 300 periods queued at once, in
    # numpy steps and then serial tails
    @example(lam=1.5, mu=1.0, nu=0.05, r=5.0, periods=20, seed=3,
             require_delivery=False, block_packets=64, periods_per_block=4096)
    @example(lam=0.5, mu=1.0, nu=0.5, r=2.0, periods=300, seed=9,
             require_delivery=False, block_packets=7, periods_per_block=4096)
    @example(lam=0.5, mu=1.0, nu=0.5, r=2.0, periods=300, seed=9,
             require_delivery=True, block_packets=7, periods_per_block=16)
    @example(lam=0.5, mu=1.0, nu=0.05, r=20.0, periods=1, seed=4,
             require_delivery=False, block_packets=1, periods_per_block=4096)
    @example(lam=1.0, mu=1.0, nu=0.04, r=5.0, periods=25, seed=0,
             require_delivery=False, block_packets=64, periods_per_block=4)
    @example(lam=1.0, mu=1.0, nu=0.05, r=5.0, periods=300, seed=5,
             require_delivery=False, block_packets=sim.BLOCK_PACKETS, periods_per_block=sim.PERIODS_PER_BLOCK)
    def test_equals_per_period_reference(self, lam, mu, nu, r, periods, seed,
                                         require_delivery, block_packets, periods_per_block):
        params = SimParams(lam=lam, mu=mu, nu=nu, r=r, periods=periods, master_seed=seed,
                           require_delivery=require_delivery)
        with mock.patch.object(sim, "PERIODS_PER_BLOCK", periods_per_block):
            with mock.patch.object(sim, "BLOCK_PACKETS", block_packets):
                batched = simulate(params)
            assert_same_timeline(batched, reference_timeline(params))
        if require_delivery:
            assert np.all(batched.delivered_counts > 0)

    def test_runs_under_a_profiler(self):
        # a sys.setprofile hook holds a reference to the arrays simulate
        # grows in place after each batch
        with mock.patch.object(sim, "BLOCK_PACKETS", self.BUDGET):
            profiled = cProfile.Profile().runcall(simulate, self.MULTI_BLOCK)
            plain = simulate(self.MULTI_BLOCK)
        assert_same_timeline(profiled, plain)


class TestStreamContract:
    # 400 periods in 25 blocks of 16 whose draws include a chunk refill and
    # first-update redraws (counted by the reference below)
    PINNED = SimParams(lam=1.0, mu=1.0, nu=0.04, r=5.0, periods=400, master_seed=SEED,
                       require_delivery=True)
    # float.hex of the sum of every float field and the sum of every count
    # field of simulate(PINNED); any change to the stream contract changes them
    GOLDEN = {
        "start_times": "0x1.2a4fc8f64891fp+21",
        "failure_times": "0x1.2b85e2194f082p+21",
        "recovery_ends": "0x1.2bc462194f082p+21",
        "times_to_failure": "0x1.361923067631fp+13",
        "arrival_times": "0x1.7b28f446f88abp+25",
        "arrival_generations": "0x1.7adf39efc0ec9p+25",
        "delivered_counts": 8413,
        "generated_counts": 10398,
    }

    @mock.patch.object(sim, "PERIODS_PER_BLOCK", 16)
    def test_multi_block_run_pinned(self):
        coverage = [block_draws(self.PINNED, block)[1] for block in range(block_count(self.PINNED))]
        assert len(coverage) == 25
        assert sum(c["refills"] for c in coverage) >= 1
        assert sum(c["redraws"] for c in coverage) >= 1
        timeline = simulate(self.PINNED)
        assert pinned_sums(timeline) == self.GOLDEN

    @pytest.mark.parametrize("require_delivery", [False, True])
    def test_failure_clocks_shared_across_a_rho_sweep(self, require_delivery):
        """Clocks do not depend on lam, nor do the redraws that condition
        them (those compare clocks with first services, which depend on mu
        only): every point of a rho sweep at one seed sees the same
        failures. Criterion 6 relies on this coupling."""
        base = SimParams(**DEFAULTS, periods=5000, master_seed=SEED, require_delivery=require_delivery)
        clocks = [simulate(dataclasses.replace(base, lam=rho * base.mu)).times_to_failure
                  for rho in (0.05, 0.5, 0.95)]
        assert all(np.array_equal(clocks[0], other) for other in clocks[1:])


def pinned_sums(timeline):
    sums = {}
    for field in dataclasses.fields(Timeline):
        value = getattr(timeline, field.name)
        if isinstance(value, np.ndarray):
            sums[field.name] = float.hex(float(value.sum())) if value.dtype.kind == "f" else int(value.sum())
    return sums


class TestDistributions:
    def test_failure_times_are_exponential(self, medium_timeline):
        result = stats.kstest(medium_timeline.times_to_failure, "expon",
                              args=(0, 1.0 / DEFAULTS["nu"]))
        assert result.pvalue > 0.01

    def test_departures_poisson_in_steady_state(self):
        """With rho < 1 the delivery stream deep inside the working span is
        Poisson at the generation rate. Sampling must dodge two confounders:
        the queue warms up from empty at each period start, and gaps cut short
        by a failure are biased, so use long working spans (tiny nu), skip the
        first 200 gaps of each period, and test the rest against Exp(lam)."""
        tl = simulate(SimParams(lam=0.5, mu=1.0, nu=1e-4, r=5.0, periods=220, master_seed=99))
        offsets = np.concatenate(([0], np.cumsum(tl.delivered_counts)))
        gaps = [
            np.diff(tl.arrival_times[offsets[p]:offsets[p + 1]])[200:]
            for p in range(tl.start_times.size)
            if tl.delivered_counts[p] > 220
        ]
        sample = np.concatenate(gaps)
        assert sample.size > 100_000
        result = stats.kstest(sample, "expon", args=(0, 1.0 / 0.5))
        assert result.pvalue > 0.01

    def test_prefailure_gaps_are_failure_tilted(self, medium_timeline):
        """Completed delivery gaps inside a working span survive both the
        delivery and the failure hazard, so away from the warm-up they follow
        Exp(lam + nu), not Exp(lam): the tilt the detector's densities rely
        on, and measurably so at this sample size."""
        lam, nu = DEFAULTS["lam"], DEFAULTS["nu"]
        offsets = np.concatenate(([0], np.cumsum(medium_timeline.delivered_counts)))
        gaps = [
            np.diff(medium_timeline.arrival_times[offsets[p]:offsets[p + 1]])[50:]
            for p in range(medium_timeline.start_times.size)
            if medium_timeline.delivered_counts[p] > 52
        ]
        sample = np.concatenate(gaps)
        tilted = stats.kstest(sample, "expon", args=(0, 1.0 / (lam + nu)))
        plain = stats.kstest(sample, "expon", args=(0, 1.0 / lam))
        assert tilted.pvalue > 0.01
        assert plain.pvalue < 1e-6
