"""Exception types shared across the package, and the finiteness check that
raises one of them."""

import math


class ParameterError(ValueError):
    """A parameter is outside its valid domain (non-positive rate, rho >= 1, ...)."""


class EmptyTimelineError(ValueError):
    """An operation needs at least one delivered update and the timeline has none."""


class SimulationLimitError(RuntimeError):
    """A run's packet budget or a period's event cap was hit; the run is
    aborted rather than truncated."""


class OracleError(RuntimeError):
    """Numerical verification (quadrature) failed to converge; no guess is returned."""


def require_finite(**values: float) -> None:
    """Raise ParameterError naming the first of `values` that is inf or NaN."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value}")
