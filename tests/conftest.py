import csv

import numpy as np
import pytest

from agemon import ParameterError, SimParams, map_threshold, summarize
from agemon.report import OUTPUTS
from reference import PeriodTrace, simulate, timeline_from_periods

# Standard configuration used throughout: lambda=0.5, mu=1, nu=1/200, r=20.
DEFAULTS = dict(lam=0.5, mu=1.0, nu=0.005, r=20.0)
SEED = 20260810
# the optimal threshold at the standard configuration, below r
MAP_TAU = map_threshold(DEFAULTS["lam"], DEFAULTS["nu"])
CSV_COLUMNS = tuple(OUTPUTS["csv"].values())
CSV_HEADER = ",".join(CSV_COLUMNS)


def read_csv(path) -> list[dict]:
    """Parse a file written by agemon.write_csv back into its rows' CSV columns."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(line for line in fh if not line.startswith("#"))
        if tuple(next(reader)) != CSV_COLUMNS:
            raise ParameterError(f"unexpected CSV header in {path}")
        records = [dict(zip(CSV_COLUMNS, record)) for record in reader]
    return [
        dict(
            swept_var=values["swept_var"],
            swept_value=float(values["swept_value"]),
            seed=int(values["seed"]) if values["seed"] else None,
            **{name: float(values[name]) if values[name] else None for name in CSV_COLUMNS[2:-1]},
        )
        for values in records
    ]


def table_rows(table, taus, confidence=None):
    """summarize's rows for `taus`, thresholds that `table` was built for,
    without half-widths by default."""
    rows = summarize(table, confidence)
    position = table.taus.tolist().index
    return [rows[position(tau)] for tau in taus]


def empirical_columns(table, tau=0.0):
    """summarize's columns for tau, a threshold that `table` was built for,
    without half-widths. The region columns do not depend on the threshold."""
    [row] = table_rows(table, [tau])
    return row


def tau_columns(table, tau):
    """error_columns' (3, periods) fp, fn and reacq columns for tau, a
    threshold that `table` was built for."""
    i = table.taus.tolist().index(tau)
    return table.error_columns(slice(i, i + 1))[:, 0]


def manual_period(start, T, r, generations, arrivals, discarded=0):
    """Build a PeriodTrace directly from relative generation/arrival times."""
    generations = np.asarray(generations, dtype=np.float64)
    arrivals = np.asarray(arrivals, dtype=np.float64)
    failure = start + T
    return PeriodTrace(
        start_time=start,
        failure_time=failure,
        recovery_end=failure + r,
        time_to_failure=T,
        recovery_duration=r,
        generations=start + generations,
        arrival_times=start + arrivals,
        discarded_count=discarded,
    )


def manual_timeline(period_specs, lam=0.5, mu=1.0, nu=0.005, seed=1):
    """Timeline from (T, r, generations, arrivals, discarded) tuples; periods
    are laid out back to back starting at t = 0."""
    traces = []
    start = 0.0
    for T, r, gens, arrs, *rest in period_specs:
        discarded = rest[0] if rest else len(gens) - len(arrs)
        traces.append(manual_period(start, T, r, gens, arrs, discarded))
        start = traces[-1].recovery_end
    params = SimParams(lam=lam, mu=mu, nu=nu, r=period_specs[0][1], periods=len(traces), master_seed=seed)
    return timeline_from_periods(params, traces)


def sawtooth_timeline(times, ages, end, cuts=()):
    """One period, failing at `end` with r = 0, whose age drops to ages[k]
    at times[k]. Each cut adds a delivery that carries the generation time
    of the delivery before it: a breakpoint that leaves the age unchanged."""
    times = np.asarray(times, dtype=np.float64)
    gens = times - np.asarray(ages, dtype=np.float64)
    cuts = np.asarray(cuts, dtype=np.float64)
    cut_gens = gens[np.searchsorted(times, cuts, side="right") - 1]
    order = np.argsort(np.concatenate((times, cuts)), kind="stable")
    arrivals = np.concatenate((times, cuts))[order]
    gens = np.concatenate((gens, cut_gens))[order]
    return manual_timeline([(end, 0.0, gens.tolist(), arrivals.tolist())])


@pytest.fixture(scope="session")
def small_timeline():
    """2000 default periods; big enough for loose statistical checks."""
    return simulate(SimParams(**DEFAULTS, periods=2000, master_seed=SEED))


@pytest.fixture(scope="session")
def medium_timeline():
    """10^4 default periods; used by the distributional tests."""
    return simulate(SimParams(**DEFAULTS, periods=10_000, master_seed=SEED))
