"""Finite-difference derivative estimates and verification reports.

Central differences verify analytic derivatives; the fundamental-theorem
check F(b) - F(a) against a quadrature value verifies antiderivatives.
The default step h = 1e-4 trades truncation against roundoff well for
smooth functions near unit scale; below h ~ cbrt(eps) the roundoff term
grows again, so h is fixed rather than auto-tuned.
"""

from __future__ import annotations

import math
import sys

from ._record import Record
from .errors import DomainError, NumericError, _finite, _finite_result, _interval, _positive

DEFAULT_H = 1e-4
DEFAULT_TOL_ABS = 1e-6
DEFAULT_TOL_REL = 1e-6


class DerivativeReport(Record):
    point: float
    h: float
    analytic: float
    numeric: float
    abs_diff: float
    rel_diff: float
    verdict: str  # "pass" | "fail"


class AntiderivativeReport(Record):
    a: float
    b: float
    ftc_value: float
    quad_value: float
    n: int
    abs_diff: float
    verdict: str


def _eval_finite(f: Callable[[float], float], x: float) -> float:
    v = f(x)
    if not math.isfinite(v):
        raise NumericError(f"function returned non-finite value {v!r} at {x!r}")
    return v


def _moved(a: float, x: float, h: float, point) -> float:
    # x is a moved by h; a step lost to rounding leaves a difference of 0 whatever f is,
    # and one that overflows would evaluate f at infinity
    if x == a:
        raise NumericError(f"step h={h!r} is too small to move the point {point!r}")
    if not math.isfinite(x):
        raise NumericError(f"step h={h!r} moves the point {point!r} to {x!r}")
    return x


def central_diff(f: Callable[[float], float], a: float, h: float) -> float:
    """Slope of the secant through (a-h, f(a-h)) and (a+h, f(a+h))."""
    # a NaN point still gives a slope for an f that ignores it, and no step moves an infinite one
    _finite("point a", a)
    _positive("step h", h)
    right, left = _moved(a, a + h, h, a), _moved(a, a - h, h, a)
    return _finite_result((_eval_finite(f, right) - _eval_finite(f, left)) / (2.0 * h), "central difference")


def one_sided_diff(f: Callable[[float], float], a: float, h: float) -> float:
    """Secant slope (f(a+h) - f(a)) / h; negative h gives the left secant."""
    _finite("point a", a)
    if h == 0:
        raise DomainError("step h must be nonzero")
    _finite("step h", h)
    right = _moved(a, a + h, h, a)
    return _finite_result((_eval_finite(f, right) - _eval_finite(f, a)) / h, "one-sided difference")


def _check_tolerance(name: str, tol: float) -> None:
    # a negative (or NaN) tolerance would make every verdict "fail", an infinite one "pass"
    if not tol >= 0:
        raise DomainError(f"{name} must be nonnegative, got {tol!r}")
    _finite(name, tol)


def verify_derivative(
    f: Callable[[float], float],
    fprime: Callable[[float], float],
    a: float,
    h: float = DEFAULT_H,
    tol_abs: float = DEFAULT_TOL_ABS,
    tol_rel: float = DEFAULT_TOL_REL,
) -> DerivativeReport:
    """Compare an analytic derivative against the central-difference estimate."""
    _check_tolerance("tol_abs", tol_abs)
    _check_tolerance("tol_rel", tol_rel)
    numeric = central_diff(f, a, h)  # checks the point before the step
    analytic = _eval_finite(fprime, a)
    abs_diff = _finite_result(abs(analytic - numeric), "analytic - numeric")
    rel_diff = abs_diff / max(abs(analytic), 1.0)
    verdict = "pass" if (abs_diff <= tol_abs or rel_diff <= tol_rel) else "fail"
    return DerivativeReport(
        point=a,
        h=h,
        analytic=analytic,
        numeric=numeric,
        abs_diff=abs_diff,
        rel_diff=rel_diff,
        verdict=verdict,
    )


def verify_antiderivative(
    f: Callable[[float], float],
    antiderivative: Callable[[float], float],
    a: float,
    b: float,
    n: int = 20,
    tol: float = DEFAULT_TOL_ABS,
) -> AntiderivativeReport:
    """Check F(b) - F(a) against the n-point quadrature value of f on [a, b].

    The verdict is "pass" when ``abs_diff`` is at most ``tol`` or at most
    4 eps max(|F(a)|, |F(b)|, |quad_value|): a few roundings of values
    that large, so a last-bit difference never decides it.
    """
    _check_tolerance("tol", tol)
    _interval(a, b)  # F at an infinite bound is not an integral
    # imported here: derivative checks and the solvers never integrate
    from .quadrature import integrate_1d

    fb = _eval_finite(antiderivative, b)
    fa = _eval_finite(antiderivative, a)
    ftc_value = _finite_result(fb - fa, "F(b) - F(a)")
    quad_value = integrate_1d(f, a, b, n)
    abs_diff = _finite_result(abs(ftc_value - quad_value), "F(b) - F(a) - quadrature value")
    rounding = 4.0 * sys.float_info.epsilon * max(abs(fa), abs(fb), abs(quad_value))
    return AntiderivativeReport(
        a=a,
        b=b,
        ftc_value=ftc_value,
        quad_value=quad_value,
        n=n,
        abs_diff=abs_diff,
        verdict="pass" if abs_diff <= max(tol, rounding) else "fail",
    )


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
    from .quadrature import _fsum

    # each term is finite and no larger than its gradient component, so the
    # sum is finite unless the exact sum overflows
    return _fsum([g * (v / norm) for g, v in zip(grad, d)], "directional derivative")
