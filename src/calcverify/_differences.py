"""Finite differences that only the library offers: one-sided, gradient, directional.

No CLI path calls them, so none compiles them.  Where each name here is
imported from: ``calcverify._NAMES``.
"""

from __future__ import annotations

import math

from .diffcheck import _eval_finite, _moved
from .errors import DomainError, NumericError, _finite, _finite_result, _positive


def one_sided_diff(f: Callable[[float], float], a: float, h: float) -> float:
    """Secant slope (f(a+h) - f(a)) / h; negative h gives the left secant."""
    _finite("point a", a)
    if h == 0:
        raise DomainError("step h must be nonzero")
    _finite("step h", h)
    right = _moved(a, a + h, h, a)
    return _finite_result((_eval_finite(f, right) - _eval_finite(f, a)) / h, "one-sided difference")


def gradient(
    f: Callable[..., float],
    point: Sequence[float],
    h: float,
) -> tuple[float, ...]:
    """Forward-difference gradient using exactly d+1 function evaluations.

    All components share one base evaluation f(point); component k uses
    f with only coordinate k bumped by +h.
    """
    _positive("step h", h)
    p = tuple(float(v) for v in point)
    if len(p) < 1:
        raise DomainError("point must have at least one coordinate")
    if not all(map(math.isfinite, p)):
        raise DomainError(f"point must be finite, got {p!r}")
    bumps = [_moved(v, v + h, h, p) for v in p]
    base = f(*p)
    if not math.isfinite(base):
        raise NumericError(f"function returned non-finite value {base!r} at {p!r}")
    out = []
    for k in range(len(p)):
        bumped = p[:k] + (bumps[k],) + p[k + 1 :]
        v = f(*bumped)
        if not math.isfinite(v):
            raise NumericError(
                f"function returned non-finite value {v!r} bumping coordinate {k}"
            )
        out.append(_finite_result((v - base) / h, f"difference quotient of coordinate {k}"))
    return tuple(out)


def directional_derivative(
    f: Callable[..., float],
    point: Sequence[float],
    direction: Sequence[float],
    h: float,
) -> float:
    """Gradient estimate dotted with the unit vector along ``direction``."""
    d = tuple(float(v) for v in direction)
    norm = math.hypot(*d)
    if norm == 0.0 or not math.isfinite(norm):
        raise DomainError("direction must have a nonzero finite norm")
    if len(point) != len(d):
        raise DomainError("direction and point dimensions differ")
    grad = gradient(f, point, h)
    from ._box import _fsum

    # each term is finite and no larger than its gradient component, so the
    # sum is finite unless the exact sum overflows
    return _fsum([g * (v / norm) for g, v in zip(grad, d)], "directional derivative")
