"""Failure detection from update timings.

The monitor never observes the sensor directly. It tracks the gap age
z(t) = t - (last arrival at or before t) and declares a failure once z
exceeds a threshold. The optimal threshold compares the prior-weighted
densities of z under the two states and collapses to a single constant;
when that constant is at least the recovery duration the rule degenerates
to always declaring the sensor operational.

This module holds the rule and `ErrorBreakdown`, the record of its errors;
`summary.PeriodTable.error_columns` measures a rule's exact empirical error
on each period of a timeline, and `.error` sums it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import check_params


def map_threshold(lam: float, nu: float) -> float:
    """Optimal gap-age threshold log(lam/nu + 2) / (lam + nu)."""
    check_params(lam=lam, nu=nu)
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
        check_params(r=r)
        return cls(tau=tau, degenerate=tau >= r)

    @classmethod
    def with_threshold(cls, tau: float, r: float) -> "DecisionRule":
        """A (generally suboptimal) rule with an explicit threshold."""
        check_params(tau=tau, r=r)
        return cls(tau=float(tau), degenerate=tau >= r)


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

    false_positive_time: float
    false_negative_time: float
    reacquisition_fp_time: float
    measured_time: float

    @property
    def error_rate(self) -> float:
        return (self.false_positive_time + self.false_negative_time) / self.measured_time

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
