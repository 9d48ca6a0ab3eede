"""Scalar solvers for f(x) = c: Newton's method and the secant method.

Divergence is reported through the ``converged`` flag, never repaired
with bracketing.  Solving f(x) = c follows exactly the same arithmetic
path as solving g(x) = 0 with g = f - c.
"""

from __future__ import annotations

import math

from ._record import Record
from .errors import DomainError, NumericError, _finite, _integer, _positive

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITERS = 100
# near cbrt(eps): best central-difference step at unit scale
FD_STEP = 1e-7
FLAT_SLOPE = 1e-14


class SolveResult(Record):
    root: float
    residual: float
    iterations: int
    converged: bool


def _check_options(tol: float, max_iters: int) -> None:
    # positive and finite: an infinite tolerance would call any start a root
    _positive("tolerance", tol)
    if _integer("max_iters", max_iters) < 1:
        raise DomainError(f"max_iters must be at least 1, got {max_iters!r}")


def _residual_fn(f: Callable[[float], float], c: float) -> Callable[[float], float]:
    def g(x: float) -> float:
        r = f(x) - c
        if not math.isfinite(r):
            raise NumericError(f"function returned non-finite residual {r!r} at {x!r}")
        return r

    return g


def _iterate(
    g, slope, x: float, tol: float, max_iters: int, slope_name: str, method: str
) -> SolveResult:
    # x <- x - r / slope(x, r) from r = g(x): the methods differ only in the slope
    r = g(x)
    if abs(r) <= tol:
        return SolveResult(root=x, residual=abs(r), iterations=0, converged=True)
    for iteration in range(1, max_iters + 1):
        s = slope(x, r)
        if not math.isfinite(s):
            raise NumericError(f"{slope_name} is non-finite at iterate {x!r}")
        if abs(s) < FLAT_SLOPE:
            raise NumericError(f"{slope_name} is flat ({s!r}) at iterate {x!r}")
        x = x - r / s
        if not math.isfinite(x):
            raise NumericError(f"{method} iterate became non-finite")
        r = g(x)
        if abs(r) <= tol:
            return SolveResult(root=x, residual=abs(r), iterations=iteration, converged=True)
    return SolveResult(root=x, residual=abs(r), iterations=max_iters, converged=False)


def newton_solve(
    f: Callable[[float], float],
    c: float,
    x0: float,
    fprime: Callable[[float], float] | None = None,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> SolveResult:
    """Newton iteration x <- x - (f(x) - c) / f'(x).

    Without an analytic ``fprime`` the slope falls back to a central
    difference with step 1e-7.
    """
    _check_options(tol, max_iters)
    g = _residual_fn(f, c)
    x = float(x0)
    _finite("c", c)
    _finite("x0", x)

    if fprime is None:  # only the difference slope needs diffcheck
        from .diffcheck import central_diff

    def slope(x: float, r: float) -> float:
        return fprime(x) if fprime is not None else central_diff(g, x, FD_STEP)

    return _iterate(g, slope, x, tol, max_iters, "derivative", "Newton")


def secant_solve(
    f: Callable[[float], float],
    c: float,
    x0: float,
    x1: float,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> SolveResult:
    """Secant iteration with the finite slope through the last two iterates."""
    _check_options(tol, max_iters)
    if x0 == x1:
        raise DomainError("secant starts x0 and x1 must differ")
    g = _residual_fn(f, c)
    prev, cur = float(x0), float(x1)
    _finite("c", c)
    _finite("x0", prev)
    _finite("x1", cur)
    last = [prev, g(prev)]

    def chord(x: float, r: float) -> float:
        p, r_p = last
        last[:] = x, r
        # a step too small to move the iterate leaves the chord 0/0
        return (r - r_p) / (x - p) if x != p else math.nan

    return _iterate(g, chord, cur, tol, max_iters, "secant slope", "secant")
