import concurrent.futures
import cProfile
import dataclasses
import json
import math
import random
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

import agemon.sim as sim
from agemon import ParameterError, SimParams, SimulationLimitError, simulate_table
from agemon.report import _params_comment, json_text, project, run_row
from conftest import DEFAULTS, MAP_TAU, SEED
from reference import (
    Timeline,
    block_count,
    block_draws,
    block_streams,
    block_traces,
    generate_period,
    lay_end_to_end,
    lindley_arrival_times,
    reference_timeline,
    simulate,
    timeline_from_periods,
    uniform_departures,
)


class TestParams:
    @pytest.mark.parametrize("bad", [
        dict(lam=0.0), dict(lam=-1.0), dict(mu=0.0), dict(nu=-0.1),
        dict(r=-1.0), dict(periods=0), dict(master_seed=-1), dict(master_seed=2**64),
        dict(lam=math.inf), dict(lam=-math.inf), dict(mu=math.inf), dict(nu=math.inf),
        dict(r=math.inf), dict(r=-math.inf), dict(r=math.nan), dict(periods=2**32),
        # once taken for their truth value: "no" conditioned the run, and the
        # CSV comment read require_delivery=no
        dict(require_delivery="no"), dict(require_delivery=1), dict(require_delivery=None),
    ])
    def test_invalid_rejected(self, bad):
        with pytest.raises(ParameterError, match=next(iter(bad))):
            SimParams(**{**DEFAULTS, "periods": 10, **bad})

    # once truncated silently: periods=2.7 ran 2 periods, master_seed=1.9
    # seeded 1; and read as integers: periods=True ran 1 period,
    # master_seed=False seeded 0
    @pytest.mark.parametrize("bad", [
        dict(periods=2.7), dict(master_seed=1.9), dict(periods=np.float64(3.0)),
        dict(periods=True), dict(master_seed=False), dict(periods=np.True_),
    ])
    def test_non_integral_count_or_seed_rejected(self, bad):
        name, value = next(iter(bad.items()))
        with pytest.raises(ParameterError, match=re.escape(f"{name} must be an integer, got {value!r}")):
            SimParams(**{**DEFAULTS, "periods": 10, **bad})

    # a numpy bool was once kept as is, and json_text then failed on it
    # after validate's 10^4-period simulation
    @pytest.mark.parametrize("value", [np.True_, np.False_, True, False])
    def test_bool_require_delivery_stored_as_python_bool(self, value):
        p = SimParams(**DEFAULTS, periods=10, require_delivery=value)
        assert p.require_delivery is bool(value)
        assert json.loads(json_text(project(run_row(p), "validate")))["require_delivery"] is bool(value)
        assert f" require_delivery={'true' if value else 'false'} " in _params_comment(p)

    def test_numpy_integers_accepted(self):
        p = SimParams(**DEFAULTS, periods=np.int32(7), master_seed=np.uint64(2**63))
        assert (p.periods, p.master_seed) == (7, 2**63)
        assert type(p.periods) is int and type(p.master_seed) is int

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
        arrivals = sim._lindley_lockstep(np.concatenate(d), np.append(np.concatenate(s), 0.0), counts)
        for p, got in enumerate(np.split(arrivals, np.cumsum(counts)[:-1])):
            assert np.array_equal(got, event_driven_arrivals(d[p], s[p])), p

    @staticmethod
    def assert_lockstep_is_serial(counts, seed):
        rng = np.random.default_rng(seed)
        d = [np.cumsum(rng.exponential(2.0, size=c)) for c in counts]
        s = [rng.exponential(1.0, size=c) for c in counts]
        arrivals = sim._lindley_lockstep(np.concatenate(d), np.append(np.concatenate(s), 0.0), np.asarray(counts))
        assert arrivals.size == sum(counts)
        for p, got in enumerate(np.split(arrivals, np.cumsum(counts)[:-1])):
            assert np.array_equal(got, event_driven_arrivals(d[p], s[p])), p

    # block cells 1 steps once per block; 10**9 makes each block as long as
    # the quarter rule and the numpy steps allow
    @pytest.mark.parametrize("cells", [1, 10**9])
    @pytest.mark.parametrize("cutoff", [None, 1, 10**6])
    def test_ragged_periods_in_blocks_of_any_size(self, monkeypatch, cutoff, cells):
        counts = np.random.default_rng(8).integers(1, 300, size=96)
        if cutoff is not None:
            monkeypatch.setattr(sim, "_LOCKSTEP_MIN_PERIODS", cutoff)
        monkeypatch.setattr(sim, "_GROUP_PACKETS", cells)
        self.assert_lockstep_is_serial(counts.tolist(), seed=9)

    MIN = sim._LOCKSTEP_MIN_PERIODS
    SHAPES = {
        # no period runs out early, so every block runs to its cell cap
        "equal": [40] * 64,
        # the last period in storage runs out first: its steps past its end
        # would index past the end of the arrays
        "shortest-last": [60] * 40 + [3],
        "one-packet": [1] * 100,
        # the numpy steps end with exactly the cutoff's periods still queueing
        "cutoff-exactly": [12] * 20 + [30] * MIN,
        # one period fewer: those go to the serial tail instead
        "cutoff-minus-one": [12] * 20 + [30] * (MIN - 1),
    }

    @pytest.mark.parametrize("cells", [None, 1, 10**9])
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_lockstep_edge_shapes(self, monkeypatch, shape, cells):
        if cells is not None:
            monkeypatch.setattr(sim, "_GROUP_PACKETS", cells)
        self.assert_lockstep_is_serial(self.SHAPES[shape], seed=10)

    def test_lockstep_memory_is_one_block(self):
        # 4096 periods of equal length make the widest blocks. Beyond its
        # inputs and output the lockstep holds per-period arrays and one
        # block's buffers (index, departures, services, 8 * _GROUP_PACKETS
        # bytes each), never a copy of the run's 409600 packets (3.3 MB).
        periods, length = 4096, 100
        rng = np.random.default_rng(11)
        departures = np.cumsum(rng.exponential(2.0, size=(periods, length)), axis=1).ravel()
        services = np.append(rng.exponential(1.0, size=periods * length), 0.0)
        counts = np.full(periods, length)
        sim._lindley_lockstep(departures[:16 * length], services[:16 * length + 1].copy(), counts[:16])
        tracemalloc.start()
        try:
            sim._lindley_lockstep(departures, services, counts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the arrivals overwrite the services, so the output is no new array
        assert peak < 4 * 8 * sim._GROUP_PACKETS + 16 * 8 * periods

    @pytest.mark.parametrize("cells", [None, 1, 10**9])
    @pytest.mark.parametrize("shape", sorted(SHAPES) + ["ragged"])
    def test_spare_slot_solves_in_place(self, monkeypatch, shape, cells):
        # the services have one spare slot past the packets and the arrivals
        # overwrite them; the departures are left as they were
        if cells is not None:
            monkeypatch.setattr(sim, "_GROUP_PACKETS", cells)
        counts = np.asarray(self.SHAPES.get(shape, np.random.default_rng(8).integers(1, 300, size=96)))
        rng = np.random.default_rng(13)
        departures = np.concatenate([np.cumsum(rng.exponential(2.0, size=c)) for c in counts])
        services = rng.exponential(1.0, size=departures.size)
        inputs = departures.tobytes()
        spare = np.append(services, 0.0)
        in_place = sim._lindley_lockstep(departures, spare, counts)
        assert np.shares_memory(in_place, spare)
        assert departures.tobytes() == inputs

    def test_missing_spare_slot_rejected(self):
        # without it, a block's steps past a period's end would write the
        # last live service
        with pytest.raises(ParameterError, match="spare slot"):
            sim._lindley_lockstep(np.zeros(3), np.ones(3), np.array([3]))

    def test_reference_leaves_its_inputs(self):
        departures = np.cumsum(np.random.default_rng(14).exponential(2.0, size=50))
        services = np.random.default_rng(15).exponential(1.0, size=50)
        inputs = departures.tobytes(), services.tobytes()
        lindley_arrival_times(departures, services)
        assert (departures.tobytes(), services.tobytes()) == inputs

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
        # the run expects 501 packets, within the cap, but this seed's clock
        # expects lam * T ~ 1689 updates of its one period
        monkeypatch.setattr(sim, "MAX_EXPECTED_PACKETS", 1000)
        params = SimParams(lam=5.0, mu=1.0, nu=0.01, r=1.0, periods=1, master_seed=2)
        message = r"^a period expects 1\.69e\+03 updates, lam \* T, over the cap MAX_EXPECTED_PACKETS = 1000$"
        with pytest.raises(SimulationLimitError, match=message):
            simulate(params)

    @pytest.mark.parametrize("params, cap", [
        # expects 1e18 packets: refused before any draw
        (SimParams(lam=1e9, mu=1.0, nu=1e-9, r=1.0, periods=1), "MAX_EXPECTED_PACKETS"),
        # expects 8e8 packets, within the run's budget, but this seed's
        # clock (~2.7e9 s) expects lam * T ~ 2.7e9 updates, over the same cap
        (SimParams(lam=1.0, mu=1.0, nu=1.25e-9, r=1.0, periods=1, master_seed=2), "a period expects"),
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

    def test_threshold_cells_trip_before_simulating(self, monkeypatch):
        # each threshold, tau = inf included, takes a cell per period of the
        # table (24 MB here), counted against MAX_EXPECTED_PACKETS before
        # anything is drawn or allocated
        monkeypatch.setattr(sim, "_simulation", lambda params: pytest.fail("simulated"))
        monkeypatch.setattr(sim, "MAX_EXPECTED_PACKETS", 3 * 10**6 - 1)
        params, taus = SimParams(**DEFAULTS, periods=10**6), [1.0, math.inf, 2.0]
        tracemalloc.start()
        try:
            with pytest.raises(SimulationLimitError, match=r"3 thresholds take 3000000 cells.* = 2999999$"):
                simulate_table(params, taus)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        monkeypatch.setattr(sim, "MAX_EXPECTED_PACKETS", 3 * 10**6)
        with pytest.raises(pytest.fail.Exception, match="simulated"):
            simulate_table(params, taus)


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
    # then the same run conditioned over several blocks; one period; seven
    # blocks cut into runs of a few periods; 300 periods queued at once, in
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
        # a table of several runs, each written over its own buffer's
        # generations, is the same under a sys.setprofile hook (which holds
        # references to the arrays of the calls it sees); tau = 0 sums every
        # gap of a period
        taus = (0.0, 2.0)
        with mock.patch.object(sim, "BLOCK_PACKETS", self.BUDGET):
            profiled = cProfile.Profile().runcall(simulate_table, self.MULTI_BLOCK, taus)
            plain = simulate_table(self.MULTI_BLOCK, taus)
        assert profiled.hinges.tobytes() == plain.hinges.tobytes()
        assert profiled.areas.tobytes() == plain.areas.tobytes()

    @staticmethod
    def traced_table_peak(params, block):
        """simulate_table(params, [MAP_TAU]) in runs of `block` packets: (the
        table, the traced peak of building it)."""
        with mock.patch.object(sim, "BLOCK_PACKETS", block):
            tracemalloc.start()
            try:
                table = simulate_table(params, [MAP_TAU])
                return table, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    def test_transient_memory_is_a_few_runs(self):
        # The traced peak of simulate_table above the table's arrays, in
        # units of one run's packets (8 * BLOCK_PACKETS bytes), is what the
        # run loop holds for the run in flight: its departure buffer and its
        # services, the lockstep's block buffers and a ufunc buffer. Measured
        # at this seed, alone in a fresh process: 2.99x, 0.75x of it the
        # lockstep's block buffers and 0.24x the ufunc buffer; 10.0x with
        # every run's buffers kept referenced to the end.
        block = 2**16
        params = SimParams(**DEFAULTS, periods=3000, master_seed=SEED)
        # a process's first call allocates numpy state that would be traced
        # here, some of it only at this size: the warm-up is this very call
        self.traced_table_peak(params, block)
        table, peak = self.traced_table_peak(params, block)
        own = sum(value.nbytes for value in vars(table).values() if isinstance(value, np.ndarray))
        assert peak - own < 3 * (8 * block)

    def test_peak_grows_by_periods_not_packets(self):
        # With runs of 2**12 packets, from 3000 to 12000 default periods
        # (~101 packets each) the traced peak of simulate_table grows by its
        # per-period arrays only, never by a term per packet. Measured: 260 B
        # per added period (32 cells of 8 B), against the bound of 404 B;
        # 1067 B when the table kept every delivery's gap, 8 B per packet.
        simulate_table(SimParams(**DEFAULTS, periods=1), ())
        peaks = [self.traced_table_peak(SimParams(**DEFAULTS, periods=periods, master_seed=SEED), 2**12)[1]
                 for periods in (3000, 12000)]
        packets = 9000 * (1.0 + DEFAULTS["lam"] / DEFAULTS["nu"])
        assert peaks[1] - peaks[0] < 0.5 * 8 * packets


class TestStreamContract:
    # 400 periods in 25 blocks of 16, each conditioned on a delivery, whose
    # draws include periods with no update after the first (counted by the
    # reference below)
    PINNED = SimParams(lam=1.0, mu=1.0, nu=0.04, r=5.0, periods=400, master_seed=SEED,
                       require_delivery=True)
    # float.hex of the sum of every float field and the sum of every count
    # field of simulate(PINNED); any change to the stream contract changes
    # them. Recorded again under contract 5 (conditioned periods drawn from
    # their exact law)
    GOLDEN = {
        "start_times": "0x1.2a5f56cf4c682p+21",
        "failure_times": "0x1.2b980fe312db8p+21",
        "recovery_ends": "0x1.2bd68fe312db8p+21",
        "times_to_failure": "0x1.38b913c673602p+13",
        "arrival_times": "0x1.88e4c68008667p+25",
        "arrival_generations": "0x1.8894e8d00acb6p+25",
        "delivered_counts": 8618,
        "generated_counts": 10588,
    }

    # 1/lam and 1/mu of the benchmark's workloads and of the test
    # configurations, a power of two and a tiny scale
    SCALES = [1 / 0.5, 1 / 0.9, 1 / 1.0, 1 / 0.05, 1 / 1.5, 1 / 1.2, 1 / 0.2, 1 / 2.0, 1 / 5.0, 2.0**-7, 1e-300]

    @pytest.mark.parametrize("scale", SCALES)
    def test_exponential_is_scaled_standard_draw(self, scale):
        """simulate draws clocks and services with standard_exponential and
        scales them in place, and its spacings with standard_exponential(
        out=...) into a slice of its buffer; the reference draws clocks and
        services with exponential(scale), and spacings period by period.
        They agree only while numpy computes exponential(scale) as scale
        times the standard draw, whatever the call's size or output buffer."""
        size = 1000
        drawn = sim._stream(SEED, 0, 2).exponential(scale, size=size)
        scaled = sim._stream(SEED, 0, 2).standard_exponential(size) * scale
        buffer = np.full(size + 2, np.nan)
        sim._stream(SEED, 0, 2).standard_exponential(out=buffer[1:-1])
        buffer[1:-1] *= scale
        assert drawn.tobytes() == scaled.tobytes() == buffer[1:-1].tobytes()

    @mock.patch.object(sim, "PERIODS_PER_BLOCK", 16)
    def test_multi_block_run_pinned(self):
        coverage = [block_draws(self.PINNED, block)[1] for block in range(block_count(self.PINNED))]
        assert len(coverage) == 25
        assert sum(c["empty"] for c in coverage) >= 1
        timeline = simulate(self.PINNED)
        assert pinned_sums(timeline) == self.GOLDEN
        assert (timeline.delivered_counts > 0).all()
        # the same run with every block cut into several runs
        with mock.patch.object(sim, "BLOCK_PACKETS", 64), \
                mock.patch.object(sim, "_departures", wraps=sim._departures) as runs:
            cut = simulate(self.PINNED)
        assert runs.call_count > 2 * len(coverage)
        assert_same_timeline(cut, timeline)

    @mock.patch.object(sim, "PERIODS_PER_BLOCK", 16)
    def test_counts_are_drawn_with_the_clocks(self):
        # every block's counts, conditioned clocks and all, are in the record
        # before its run loop is advanced
        periods, runs = sim._simulation(self.PINNED)
        expected = [departures.size for block in range(block_count(self.PINNED))
                    for _, departures, _ in block_draws(self.PINNED, block)[0]]
        assert periods.generated_counts.tolist() == expected
        runs.close()

    @pytest.mark.parametrize("require_delivery", [False, True])
    def test_failure_clocks_shared_across_a_rho_sweep(self, require_delivery):
        """Clocks do not depend on lam, conditioned or not (a conditioned
        clock adds its first service, drawn at rate mu + nu): every point of
        a rho sweep at one seed sees the same failures. Criterion 6 relies
        on this coupling."""
        base = SimParams(**DEFAULTS, periods=5000, master_seed=SEED, require_delivery=require_delivery)
        clocks = [simulate(dataclasses.replace(base, lam=rho * base.mu)).times_to_failure
                  for rho in (0.05, 0.5, 0.95)]
        assert all(np.array_equal(clocks[0], other) for other in clocks[1:])


class FixedSpacings:
    """Stands in for a block's spacing stream: each draw takes the next of
    the given values."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)

    def standard_exponential(self, out):
        out[...] = self.values[:out.size]
        self.values = self.values[out.size:]
        return out


class TestUniformDepartures:
    """Edges of the departures min(T, C_i * (T / C_{N+1})) that rounding
    reaches once a block's running spacing sum is large."""

    def test_lone_update_departs_at_zero_when_its_span_rounds_away(self):
        # at a running sum of 2**20 half an ulp is 2**-33, so the first
        # period's only spacing is lost and its span reads 0: T / 0 would
        # give 0 * inf = NaN
        total, spacings = 2.0**20, [2.0**-40, 3.0]
        assert (total + spacings[0]) - total == 0.0
        # the caller's slots: the running sum before the two periods, then
        # one per spacing
        sums = np.array([total, np.nan, np.nan])
        with np.errstate(all="raise"):
            departures = sim._departures(np.array([5.0, 7.0]), np.array([1, 1]), sums,
                                         FixedSpacings(spacings))
        after = sums[-1]
        assert np.shares_memory(departures, sums)
        assert departures.tolist() == [0.0, 0.0]
        assert after == total + 3.0
        assert uniform_departures(5.0, [total, total + spacings[0]]).tolist() == [0.0]

    def test_no_departure_past_the_failure_when_the_last_spacing_rounds_away(self):
        # 200 periods at running sums of 1e6-8e6, each with 1-19 updates
        # after its first and a last spacing of 1e-12, below half an ulp of
        # the sum: the last departure is C_N * (T / C_N), which can round
        # past T, and the clip holds it at T
        rng = np.random.default_rng(SEED)
        past = 0
        for _ in range(200):
            total, n, T = rng.uniform(1e6, 8e6), int(rng.integers(1, 20)), rng.exponential(200.0)
            spacings = np.append(rng.standard_exponential(n), 1e-12)
            slots = np.append(total, np.full(n + 1, np.nan))
            departures = sim._departures(np.array([T]), np.array([n + 1]), slots, FixedSpacings(spacings))
            sums = np.cumsum([total, *spacings])
            assert departures.tolist() == uniform_departures(T, sums).tolist()
            assert departures[0] == 0.0 and np.all(np.diff(departures) >= 0) and departures[-1] <= T
            spans = sums - total
            past += spans[-2] * (T / spans[-1]) > T
        # the unclipped product passes T in some of them
        assert past >= 1

    def test_only_the_periods_past_their_clock_are_clipped(self):
        # one call of 60 periods at a running sum of 4e6, each with 1-19
        # updates after its first; the last 0-3 of its spacings (never all)
        # are 1e-12, below half an ulp of the sum, so as many of its last
        # departures can round past T. Each period, clipped or not, reads
        # as the reference's
        rng = np.random.default_rng(SEED)
        total, counts, spacings, clocks = 4e6, [], [], []
        for _ in range(60):
            n = int(rng.integers(1, 20))
            lost = int(rng.integers(0, min(n, 3) + 1))
            counts.append(n + 1)
            spacings += [*rng.standard_exponential(n + 1 - lost), *[1e-12] * lost]
            clocks.append(rng.exponential(200.0))
        slots = np.append(total, np.full(len(spacings), np.nan))
        departures = sim._departures(np.array(clocks), np.array(counts), slots, FixedSpacings(spacings))
        sums = np.cumsum([total, *spacings])
        heads = np.cumsum(counts) - counts
        past = []
        for T, head, count in zip(clocks, heads, counts):
            period = departures[head:head + count]
            assert period.tolist() == uniform_departures(T, sums[head:head + count + 1]).tolist()
            spans = sums[head:head + count + 1] - sums[head]
            past.append(int(np.sum(spans[:-1] * (T / spans[-1]) > T)))
        # the unclipped products pass T in some periods only, by more than
        # one departure in some
        assert 0 < sum(p > 0 for p in past) < len(past)
        assert max(past) > 1


def first_periods(timeline, n):
    """The array fields of a timeline's first n periods."""
    deliveries = int(timeline.delivered_counts[:n].sum())
    return {
        field.name: getattr(timeline, field.name)[:deliveries if field.name.startswith("arrival_") else n]
        for field in dataclasses.fields(Timeline) if field.name != "params"
    }


class TestBlockPrefix:
    """An n-period run equals the first n periods of a longer run at the
    same seed, bit for bit, for any n, conditioned or not: a period's draws
    depend on no later period. A small BLOCK_PACKETS makes a block span
    several runs, so the runs' hand-over and packing are both covered."""

    @staticmethod
    def assert_prefix(params, n, more, block_packets):
        with mock.patch.object(sim, "BLOCK_PACKETS", block_packets):
            short = simulate(dataclasses.replace(params, periods=n))
            longer = simulate(dataclasses.replace(params, periods=n + more))
        for name, value in first_periods(longer, n).items():
            mine = getattr(short, name)
            assert mine.dtype == value.dtype and mine.tobytes() == value.tobytes(), name

    @settings(max_examples=30, deadline=None)
    @given(
        lam=st.floats(0.05, 2.0),
        mu=st.floats(0.2, 2.0),
        nu=st.floats(0.01, 1.0),
        r=st.floats(0.0, 30.0),
        n=st.integers(1, 40),
        more=st.integers(1, 40),
        seed=st.integers(0, 2**64 - 1),
        block_packets=st.sampled_from([1, 7, 64]),
        periods_per_block=st.sampled_from([4, 16, sim.PERIODS_PER_BLOCK]),
    )
    def test_unconditioned_run_is_a_prefix(self, lam, mu, nu, r, n, more, seed, block_packets,
                                           periods_per_block):
        params = SimParams(lam=lam, mu=mu, nu=nu, r=r, periods=1, master_seed=seed)
        with mock.patch.object(sim, "PERIODS_PER_BLOCK", periods_per_block):
            self.assert_prefix(params, n, more, block_packets)

    @settings(max_examples=30, deadline=None)
    @given(
        lam=st.floats(0.05, 2.0),
        mu=st.floats(0.2, 2.0),
        nu=st.floats(0.01, 1.0),
        r=st.floats(0.0, 30.0),
        n=st.integers(1, 40),
        more=st.integers(1, 40),
        seed=st.integers(0, 2**64 - 1),
        block_packets=st.sampled_from([1, 7, 64]),
        periods_per_block=st.sampled_from([4, 16, sim.PERIODS_PER_BLOCK]),
    )
    def test_conditioned_run_is_a_prefix(self, lam, mu, nu, r, n, more, seed, block_packets,
                                         periods_per_block):
        # conditioned periods are drawn from their exact law, with no redraw
        # rounds over a block, so n need not fall on a block boundary
        params = SimParams(lam=lam, mu=mu, nu=nu, r=r, periods=1, master_seed=seed, require_delivery=True)
        with mock.patch.object(sim, "PERIODS_PER_BLOCK", periods_per_block):
            self.assert_prefix(params, n, more, block_packets)

    @settings(max_examples=30, deadline=None)
    @given(
        lam=st.floats(0.05, 2.0),
        mu=st.floats(0.2, 2.0),
        nu=st.floats(0.01, 1.0),
        r=st.floats(0.0, 30.0),
        blocks=st.integers(1, 4),
        more=st.integers(1, 40),
        seed=st.integers(0, 2**64 - 1),
        block_packets=st.sampled_from([1, 7, 64]),
    )
    @mock.patch.object(sim, "PERIODS_PER_BLOCK", 8)
    def test_conditioned_run_is_a_prefix_at_block_boundaries(self, lam, mu, nu, r, blocks, more, seed,
                                                             block_packets):
        # whole blocks of conditioned periods inside a run that goes on into
        # the next block
        params = SimParams(lam=lam, mu=mu, nu=nu, r=r, periods=1, master_seed=seed, require_delivery=True)
        self.assert_prefix(params, blocks * sim.PERIODS_PER_BLOCK, more, block_packets)

    @pytest.mark.parametrize("require_delivery", [False, True])
    def test_default_block_is_a_prefix(self, require_delivery):
        # one whole block of the defaults inside a run of a block and a
        # half, in runs of about 2**14 gaps
        params = SimParams(**DEFAULTS, periods=1, master_seed=SEED, require_delivery=require_delivery)
        self.assert_prefix(params, sim.PERIODS_PER_BLOCK, sim.PERIODS_PER_BLOCK // 2, 2**14)


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

    @pytest.mark.parametrize("mu, nu", [(DEFAULTS["mu"], DEFAULTS["nu"]), (0.5, 2.0)])
    def test_conditioned_periods_follow_the_rejection_law(self, mu, nu):
        """Under require_delivery a period is conditioned on its first
        service S ending by its clock T. Over 25 blocks of conditioned
        periods, the library's T, S and T - S pass two-sample KS tests
        against a rejection sampler's, which redraws (T, S) from a stream of
        its own until S <= T, and their means are 1/nu + 1/(mu + nu),
        1/(mu + nu) and 1/nu within 4 standard errors. The reference draws
        the library's law, so only this checks the law itself."""
        blocks = 25
        params = SimParams(lam=0.5 * mu, mu=mu, nu=nu, r=1.0, periods=blocks * sim.PERIODS_PER_BLOCK,
                           master_seed=SEED, require_delivery=True)
        clocks, firsts = (np.concatenate(drawn) for drawn in
                          zip(*(sim._block_draws(params, block)[:2] for block in range(blocks))))
        rng, kept = np.random.default_rng(SEED), np.empty((0, 2))
        while len(kept) < clocks.size:
            pairs = np.column_stack((rng.exponential(1 / nu, clocks.size), rng.exponential(1 / mu, clocks.size)))
            kept = np.concatenate((kept, pairs[pairs[:, 1] <= pairs[:, 0]]))
        T, S = kept[:clocks.size].T
        for mine, theirs, mean in ((clocks, T, 1 / nu + 1 / (mu + nu)), (firsts, S, 1 / (mu + nu)),
                                   (clocks - firsts, T - S, 1 / nu)):
            assert stats.ks_2samp(mine, theirs).pvalue > 0.01
            assert abs(mine.mean() - mean) < 4 * mine.std(ddof=1) / math.sqrt(mine.size)

    def test_updates_are_poisson_at_uniform_times(self):
        """The law simulate draws, on which a score of lam such as (G - 1)/lam
        - T rests: given its clock T, a period's updates after the first
        number G - 1 ~ Poisson(lam T) and sit at uniform times on [0, T].
        Over 10^4 default periods G - 1 - lam T has mean 0 within 3 standard
        errors, and variance lam E[T] = 100 within 7%: about 3 standard
        errors of the sample variance, whose variance is lam/nu + 6
        (lam/nu)^2 - (lam/nu)^2 over the periods. The departures after each
        period's first, over T, pass a KS test of uniformity."""
        lam, nu = DEFAULTS["lam"], DEFAULTS["nu"]
        uniforms, departures = [], sim._departures

        def recorded(clocks, counts, sums, rng):
            out = departures(clocks, counts, sums, rng)
            # read now: the table shifts `out` and writes its gaps over it in place
            uniforms.append(np.delete(out / np.repeat(clocks, counts), np.cumsum(counts) - counts))
            return out

        with mock.patch.object(sim, "_departures", recorded):
            tl = simulate(SimParams(**DEFAULTS, periods=10**4, master_seed=SEED))
        excess = tl.generated_counts - 1 - lam * tl.times_to_failure
        assert abs(excess.mean()) < 3 * excess.std(ddof=1) / math.sqrt(excess.size)
        assert abs(excess.var(ddof=1) / (lam / nu) - 1) < 0.07
        sample = np.concatenate(uniforms)
        assert sample.size == (tl.generated_counts - 1).sum()
        assert stats.kstest(sample, "uniform").pvalue > 0.01

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
