"""Failure detection from update timings.

The monitor never observes the sensor directly. It tracks the gap age
z(t) = t - (last arrival at or before t) and declares a failure once z
exceeds a threshold. The optimal threshold compares the prior-weighted
densities of z under the two states and collapses to a single constant;
when that constant is at least the recovery duration the rule degenerates
to always declaring the sensor operational. `summary.PeriodTable.error`
measures a rule's exact empirical error on a timeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import EmptyTimelineError, ParameterError
from .sim import Timeline


class SensorState(IntEnum):
    WORKING = 0
    FAILED = 1


def map_threshold(lam: float, nu: float) -> float:
    """Optimal gap-age threshold log(lam/nu + 2) / (lam + nu)."""
    if not lam > 0 or not nu > 0:
        raise ParameterError("lam and nu must be > 0")
    return math.log(lam / nu + 2.0) / (lam + nu)


@dataclass(frozen=True)
class DecisionRule:
    """Threshold rule: declare FAILED while z > tau, WORKING otherwise.

    degenerate is True when tau >= recovery duration, in which case the
    comparison is independent of z and the rule always declares WORKING.
    """

    tau: float
    degenerate: bool

    @classmethod
    def map_rule(cls, lam: float, nu: float, r: float) -> "DecisionRule":
        tau = map_threshold(lam, nu)
        return cls(tau=tau, degenerate=tau >= r)

    @classmethod
    def with_threshold(cls, tau: float, r: float) -> "DecisionRule":
        """A (generally suboptimal) rule with an explicit threshold."""
        if tau < 0:
            raise ParameterError("tau must be >= 0")
        return cls(tau=float(tau), degenerate=tau >= r)


def decide(z: float, rule: DecisionRule) -> SensorState:
    """State estimate for gap age z; the tie z == tau resolves to WORKING."""
    if z < 0:
        raise ParameterError("z must be >= 0")
    if rule.degenerate or z <= rule.tau:
        return SensorState.WORKING
    return SensorState.FAILED


@dataclass(frozen=True, eq=False)
class StateIntervals:
    """Ordered, gap-free intervals of constant estimated state."""

    starts: np.ndarray
    ends: np.ndarray
    states: np.ndarray

    def __len__(self) -> int:
        return int(self.starts.size)

    def __iter__(self):
        for u, v, s in zip(self.starts, self.ends, self.states):
            yield float(u), float(v), SensorState(int(s))

    def state_at(self, t: float) -> SensorState:
        if t < self.starts[0] or t > self.ends[-1]:
            raise ParameterError("t outside the estimated span")
        idx = min(int(np.searchsorted(self.starts, t, side="right")) - 1, len(self) - 1)
        return SensorState(int(self.states[idx]))


def estimated_state_trajectory(timeline: Timeline, rule: DecisionRule) -> StateIntervals:
    """Estimated state from the first arrival to the end of the last period.

    z runs straight through failures and recoveries (the monitor cannot see
    them), so the estimate flips to FAILED at a + tau whenever the next
    arrival is more than tau after a, and back to WORKING on each arrival.
    """
    arrivals = timeline.arrival_times
    if arrivals.size == 0:
        raise EmptyTimelineError("timeline has no deliveries; nothing to estimate")
    end = timeline.end_time
    if rule.degenerate:
        return StateIntervals(
            starts=np.array([arrivals[0]]),
            ends=np.array([end]),
            states=np.array([SensorState.WORKING], dtype=np.int8),
        )
    nxt = np.append(arrivals[1:], end)
    long = (nxt - arrivals) > rule.tau
    n = arrivals.size + int(long.sum())
    starts = np.empty(n)
    ends = np.empty(n)
    states = np.zeros(n, dtype=np.int8)
    pos = np.arange(arrivals.size) + np.concatenate(([0], np.cumsum(long[:-1])))
    starts[pos] = arrivals
    ends[pos] = np.minimum(arrivals + rule.tau, nxt)
    flip = pos[long] + 1
    starts[flip] = arrivals[long] + rule.tau
    ends[flip] = nxt[long]
    states[flip] = SensorState.FAILED
    return StateIntervals(starts=starts, ends=ends, states=states)


@dataclass(frozen=True)
class ErrorBreakdown:
    """Exact mismatch accounting between the estimated and the true state.

    false_positive_time is spent declaring FAILED while the sensor works,
    false_negative_time the other way around. reacquisition_fp_time is the
    part of the false-positive time inside the spans between a period's
    first generation and its first delivery: right after a recovery z is
    still draining the outage, so a false positive there is structural
    whenever tau < r. detection_error_rate scores those spans as correct,
    matching the scope of the closed-form error rate.
    """

    error_rate: float
    false_positive_time: float
    false_negative_time: float
    measured_time: float
    reacquisition_fp_time: float

    @property
    def fp_rate(self) -> float:
        return self.false_positive_time / self.measured_time

    @property
    def fn_rate(self) -> float:
        return self.false_negative_time / self.measured_time

    @property
    def detection_error_rate(self) -> float:
        return (
            self.false_positive_time - self.reacquisition_fp_time + self.false_negative_time
        ) / self.measured_time
