"""Shared exception types, and the shared guards that raise them; each guard returns its value."""

import math


class CalcVerifyError(Exception):
    """Base class for all calcverify errors."""


class DomainError(CalcVerifyError):
    """An argument lies outside the mathematical domain of the operation."""


class CapabilityError(CalcVerifyError):
    """The request exceeds the supported size or conditioning range."""


class NumericError(CalcVerifyError):
    """A computation hit a non-finite value or a degenerate configuration."""


class TableError(CalcVerifyError):
    """A rule table file is malformed or fails invariant validation."""


def _finite(name: str, value: float) -> float:
    # a NaN or infinite argument is an input error, not a failed computation
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


def _positive(name: str, value: float) -> float:
    if not value > 0:
        raise DomainError(f"{name} must be positive, got {value!r}")
    # an infinite step or tolerance passes value > 0 but measures nothing
    return _finite(name, value)


def _finite_result(value: float, quantity: str) -> float:
    # differences of finite values can still overflow, and inf / inf is nan
    if not math.isfinite(value):
        raise NumericError(f"{quantity} is non-finite ({value!r})")
    return value
