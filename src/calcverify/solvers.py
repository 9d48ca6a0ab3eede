"""Scalar solvers for f(x) = c: Newton's method and the secant method.

Divergence is reported through the ``converged`` flag, never repaired
with bracketing.  Solving f(x) = c follows exactly the same arithmetic
path as solving g(x) = 0 with g = f - c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .diffcheck import central_diff
from .errors import DomainError, NumericError

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITERS = 100
# near cbrt(eps): best central-difference step at unit scale
FD_STEP = 1e-7
FLAT_SLOPE = 1e-14


@dataclass(frozen=True)
class SolveResult:
    root: float
    residual: float
    iterations: int
    converged: bool


def _check_finite(**values: float) -> None:
    # a NaN or infinite start or target is an input error, not a failed iteration
    for name, v in values.items():
        if not math.isfinite(v):
            raise DomainError(f"{name} must be finite, got {v!r}")


def _residual_fn(f: Callable[[float], float], c: float) -> Callable[[float], float]:
    def g(x: float) -> float:
        r = f(x) - c
        if not math.isfinite(r):
            raise NumericError(f"function returned non-finite residual {r!r} at {x!r}")
        return r

    return g


def newton_solve(
    f: Callable[[float], float],
    c: float,
    x0: float,
    fprime: Optional[Callable[[float], float]] = None,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> SolveResult:
    """Newton iteration x <- x - (f(x) - c) / f'(x).

    Without an analytic ``fprime`` the slope falls back to a central
    difference with step 1e-7.
    """
    if not tol > 0:
        raise DomainError(f"tolerance must be positive, got {tol!r}")
    if max_iters < 1:
        raise DomainError(f"max_iters must be at least 1, got {max_iters!r}")
    g = _residual_fn(f, c)
    x = float(x0)
    _check_finite(c=c, x0=x)
    r = g(x)
    if abs(r) <= tol:
        return SolveResult(root=x, residual=abs(r), iterations=0, converged=True)
    for iteration in range(1, max_iters + 1):
        slope = fprime(x) if fprime is not None else central_diff(g, x, FD_STEP)
        if not math.isfinite(slope):
            raise NumericError(f"derivative is non-finite at iterate {x!r}")
        if abs(slope) < FLAT_SLOPE:
            raise NumericError(f"derivative is flat ({slope!r}) at iterate {x!r}")
        x = x - r / slope
        if not math.isfinite(x):
            raise NumericError("Newton iterate became non-finite")
        r = g(x)
        if abs(r) <= tol:
            return SolveResult(root=x, residual=abs(r), iterations=iteration, converged=True)
    return SolveResult(root=x, residual=abs(r), iterations=max_iters, converged=False)


def secant_solve(
    f: Callable[[float], float],
    c: float,
    x0: float,
    x1: float,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> SolveResult:
    """Secant iteration with the finite slope through the last two iterates."""
    if not tol > 0:
        raise DomainError(f"tolerance must be positive, got {tol!r}")
    if max_iters < 1:
        raise DomainError(f"max_iters must be at least 1, got {max_iters!r}")
    if x0 == x1:
        raise DomainError("secant starts x0 and x1 must differ")
    g = _residual_fn(f, c)
    prev, cur = float(x0), float(x1)
    _check_finite(c=c, x0=prev, x1=cur)
    r_prev, r_cur = g(prev), g(cur)
    if abs(r_cur) <= tol:
        return SolveResult(root=cur, residual=abs(r_cur), iterations=0, converged=True)
    for iteration in range(1, max_iters + 1):
        slope = (r_cur - r_prev) / (cur - prev)
        if not math.isfinite(slope):
            raise NumericError(f"secant slope is non-finite at iterate {cur!r}")
        if abs(slope) < FLAT_SLOPE:
            raise NumericError(f"secant slope is flat ({slope!r}) at iterate {cur!r}")
        nxt = cur - r_cur / slope
        if not math.isfinite(nxt):
            raise NumericError("secant iterate became non-finite")
        prev, r_prev = cur, r_cur
        cur = nxt
        r_cur = g(cur)
        if abs(r_cur) <= tol:
            return SolveResult(root=cur, residual=abs(r_cur), iterations=iteration, converged=True)
    return SolveResult(root=cur, residual=abs(r_cur), iterations=max_iters, converged=False)
