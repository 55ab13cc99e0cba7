"""Exact age-of-information metrics over a simulated timeline.

The instantaneous age is the time since the generation of the freshest
delivered update: a sawtooth that climbs with slope 1 and drops to the
system time of each update on its arrival. Every age metric (here and in
`summary.period_table`) integrates the piecewise-linear trajectory in
closed form per segment with `_age_area`; there is no time discretization
anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyTimelineError, ParameterError
from .sim import Timeline


@dataclass(frozen=True, eq=False)
class AoiTrajectory:
    """Piecewise-linear age: slope 1 between breakpoints, right-continuous
    jumps at breakpoints. times[0] must equal measurement_start."""

    times: np.ndarray
    ages: np.ndarray
    measurement_start: float
    measurement_end: float

    def age_at(self, t):
        """Age at time t (scalar or array); t must lie in the measured span."""
        t = np.asarray(t, dtype=np.float64)
        if np.any(t < self.measurement_start) or np.any(t > self.measurement_end):
            raise ParameterError("t outside the measured span")
        idx = np.searchsorted(self.times, t, side="right") - 1
        out = self.ages[idx] + (t - self.times[idx])
        return float(out) if out.ndim == 0 else out

    @property
    def breakpoints(self) -> np.ndarray:
        return np.column_stack((self.times, self.ages))


def age_trajectory(timeline: Timeline) -> AoiTrajectory:
    """Age trajectory of a timeline, measured from the first arrival (the age
    is undefined before anything was delivered) to the end of the last period."""
    if timeline.delivery_count == 0:
        raise EmptyTimelineError("timeline has no deliveries; the age is undefined")
    arrivals = timeline.arrival_times
    return AoiTrajectory(
        times=arrivals,
        ages=arrivals - timeline.arrival_generations,
        measurement_start=float(arrivals[0]),
        measurement_end=timeline.end_time,
    )


def _age_area(length, start_age):
    """Integral of the slope-1 age over `length` seconds from `start_age`:
    the trapezoid length * (start_age + length/2)."""
    return length * (start_age + 0.5 * length)


def time_average_aoi(traj: AoiTrajectory) -> float:
    """Exact time average: the sum of every segment's trapezoid over the span."""
    span = traj.measurement_end - traj.measurement_start
    if not span > 0.0:
        raise EmptyTimelineError("zero-length measurement span has no average")
    seg = np.append(traj.times[1:], traj.measurement_end) - traj.times
    return float(np.sum(_age_area(seg, traj.ages))) / span


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
