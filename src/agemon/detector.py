"""Failure detection from update timings.

The monitor never observes the sensor directly. It tracks the gap age
z(t) = t - (last arrival at or before t) and declares a failure once z
exceeds a threshold. The optimal threshold compares the prior-weighted
densities of z under the two states and collapses to a single constant;
when that constant is at least the recovery duration the rule degenerates
to always declaring the sensor operational.

This module holds the rule; `summary.PeriodTable.error_columns` measures
its exact empirical error on each period of a timeline, and
`summary.summarize` turns the column sums into error rates.
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
    def with_threshold(cls, tau: float, r: float) -> "DecisionRule":
        """The rule with threshold tau; tau = map_threshold(lam, nu) gives
        the optimal one."""
        check_params(tau=tau, r=r)
        return cls(tau=float(tau), degenerate=tau >= r)
