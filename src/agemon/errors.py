"""Exception types shared across the package, and `check_params`, the one
statement of the model parameters' domain.

The rates lam, mu and nu are finite and > 0, the recovery duration r is
finite and >= 0, and a threshold tau is >= 0 (+inf allowed, NaN not).
Every public entry point checks its parameters here; a call site adds only
a condition stricter than this domain, such as r > 0 where a density
divides by r.
"""

import math


class ParameterError(ValueError):
    """A parameter is outside its valid domain (non-positive rate, rho >= 1, ...)."""


class EmptyTimelineError(ValueError):
    """An operation needs at least one delivered update and the run has none."""


class SimulationLimitError(RuntimeError):
    """A run's expected packets, a table's threshold cells or a period's
    expected updates passed their cap; the run is aborted rather than
    truncated."""


def check_params(**values: float) -> None:
    """Raise ParameterError naming the first of `values` outside the domain
    above, keyed by argument name; any other name must only be finite."""
    for name, value in values.items():
        if name == "tau":
            if not value >= 0:
                raise ParameterError(f"tau must be >= 0, got {value}")
            continue
        if not math.isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value}")
        if name in ("lam", "mu", "nu") and not value > 0:
            raise ParameterError(f"{name} must be > 0, got {value}")
        if name == "r" and value < 0:
            raise ParameterError(f"r must be >= 0, got {value}")
