"""Exception taxonomy shared across the library.

Two failure classes matter to callers: rejected inputs (ValidationError
and subclasses) and numerical aborts while factorizing covariance
matrices (FactorizationError).  The command-line layer maps the former
to exit code 1 and the latter to exit code 2.

The two range rules every input number is checked by live here too:
``_check_count`` for integers and ``_check_real`` for reals.  Each
refuses a bool wherever a number is expected and names the field it
checks.
"""

from __future__ import annotations

import math
import numbers

__all__ = [
    "ExcursionError",
    "ValidationError",
    "ConfigError",
    "ManifoldMismatchError",
    "DegenerateChartError",
    "DegenerateModelError",
    "UnsupportedShapeError",
    "FactorizationError",
]


class ExcursionError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(ExcursionError, ValueError):
    """An input violates a documented precondition.  A range rule's
    refusal carries the name of the value it refused in ``name``."""

    def __init__(self, message: str, name: str | None = None):
        super().__init__(message)
        self.name = name


class ConfigError(ValidationError):
    """A run configuration is invalid; carries the offending field path."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


class ManifoldMismatchError(ValidationError):
    """Points, models, or domains belong to different manifolds or charts."""


class DegenerateChartError(ValidationError):
    """The chart metric is singular at the requested point (e.g. a pole)."""


class DegenerateModelError(ValidationError):
    """The model carries no usable field (constant field, kappa <= 0)."""


class UnsupportedShapeError(ValidationError):
    """The requested shape is outside the closed-form catalogue."""


class FactorizationError(ExcursionError, RuntimeError):
    """Covariance factorization failed after exhausting the jitter ladder."""


def _check_count(name: str, value, low: int, high: int | None = None) -> int:
    """``value`` as an int, after refusing a bool, a non-integer or a
    count outside [low, high] (no top when ``high`` is None)."""
    integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not (integral and low <= value and (high is None or value <= high)):
        top = "inf)" if high is None else f"{high}]"
        raise ValidationError(f"{name} must be an integer in [{low}, {top}, got {value!r}", name)
    return int(value)


def _check_real(name: str, value, *, gt=None, ge=None, le=None) -> float:
    """``value`` converted by ``float``, after refusing a bool, a value
    that is not finite, or one outside the interval: above ``gt`` (or at
    least ``ge``) and at most ``le``; a bound not given is infinite."""
    x = math.nan if isinstance(value, bool) else float(value)
    inside = (gt is None or x > gt) and (ge is None or x >= ge) and (le is None or x <= le)
    if not (math.isfinite(x) and inside):
        lo = f"({gt}" if gt is not None else "(-inf" if ge is None else f"[{ge}"
        hi = "inf)" if le is None else f"{le}]"
        raise ValidationError(f"{name} must be a finite number in {lo}, {hi}, got {value!r}", name)
    return x
