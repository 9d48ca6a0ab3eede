"""Gauss-Legendre rules and their application on intervals and boxes.

Weights come from two independent routes: the closed form
w_i = 2 / ((1 - x_i^2) P_n'(x_i)^2), evaluated in integer fixed point,
and the Vandermonde moment system (rows of node powers, right-hand side
the monomial moments), solved exactly over the rationals.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from collections.abc import Callable, Sequence

from ._record import Record
from .errors import CapabilityError, DomainError, NumericError, _finite, _finite_result
from .legendre import RootSet, gauss_weight, legendre_roots, positive_roots_fixed

MAX_POINTS = 64
# The exact moment-system solve slows steeply with the node count (its
# rationals grow); the closed form is authoritative above this cap.
LINEAR_SYSTEM_MAX_POINTS = 20

Integrand = Callable[..., float]


class QuadratureRule(Record):
    """An n-point rule on [-1, 1]: ascending interior nodes, positive weights."""

    n: int
    nodes: tuple[float, ...]
    weights: tuple[float, ...]


class Box(Record):
    """Axis-aligned integration domain in 1 to 3 dimensions."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self) -> None:
        lo = tuple(float(v) for v in self.lo)
        hi = tuple(float(v) for v in self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if len(lo) != len(hi):
            raise DomainError("lo and hi must have the same length")
        if not 1 <= len(lo) <= 3:
            raise DomainError(f"box dimension must be 1..3, got {len(lo)}")
        for k, (a, b) in enumerate(zip(lo, hi)):
            if not (math.isfinite(a) and math.isfinite(b)):
                raise DomainError(f"axis {k}: bounds must be finite")
            if not a < b:
                raise DomainError(f"axis {k}: lower bound {a!r} is not below {b!r}")

    @property
    def dims(self) -> int:
        return len(self.lo)


@lru_cache(maxsize=None)
def gauss_rule(n: int) -> QuadratureRule:
    """n-point Gauss-Legendre rule via the closed-form weights.

    Nodes are the roots of P_n (identical to ``legendre_roots(n)``);
    each weight is the closed form evaluated at the high-precision root,
    so nodes and weights are both correctly rounded doubles.
    """
    if not 1 <= n <= MAX_POINTS:
        raise CapabilityError(f"point count must be in 1..{MAX_POINTS}, got {n}")
    pos_weights = [gauss_weight(n, x) for x in positive_roots_fixed(n)]
    weights = list(reversed(pos_weights))
    if n % 2 == 1:
        weights.append(gauss_weight(n, 0))
    weights.extend(pos_weights)
    return QuadratureRule(n=n, nodes=legendre_roots(n).roots, weights=tuple(weights))


def gauss_weights_linear_system(nodes: RootSet | Sequence[float]) -> tuple[float, ...]:
    """Weights from the moment system V w = m, V[i][j] = nodes[j]^i.

    The right-hand side is the monomial moments 2/(i+1) for even i and 0
    for odd i.  The system is solved exactly over the rationals the
    float nodes stand for, by the Bjorck-Pereyra elimination for
    Vandermonde systems (Math. Comp. 24 (1970) 893-903), and each weight
    is rounded once, so the Vandermonde conditioning costs no accuracy.
    """
    xs = nodes.roots if isinstance(nodes, RootSet) else tuple(float(x) for x in nodes)
    n = len(xs)
    if n == 0:
        raise DomainError("at least one node is required")
    if n > LINEAR_SYSTEM_MAX_POINTS:
        raise CapabilityError(
            f"linear-system route supports at most {LINEAR_SYSTEM_MAX_POINTS} nodes "
            f"(got {n}); use gauss_rule instead"
        )
    if not all(math.isfinite(x) for x in xs):
        raise DomainError("nodes must be finite")
    if len(set(xs)) != n:
        raise NumericError("nodes must be distinct (singular moment system)")
    from fractions import Fraction  # the exact oracle alone needs it

    x = [Fraction(v) for v in xs]
    w = [Fraction(2, i + 1) if i % 2 == 0 else Fraction(0) for i in range(n)]
    # the two sweeps apply the lower, then the upper bidiagonal factors of V^-1
    for k in range(n - 1):
        for i in range(n - 1, k, -1):
            w[i] -= x[k] * w[i - 1]
    for k in range(n - 2, -1, -1):
        for i in range(k + 1, n):
            w[i] /= x[i] - x[i - k - 1]
        for i in range(k, n - 1):
            w[i] -= w[i + 1]
    try:
        return tuple(float(v) for v in w)
    except OverflowError:  # nodes very close together make the exact weights huge
        raise NumericError("an exact weight of the moment system overflows a double") from None


def _term_error(v: float, point: tuple[float, ...]) -> NumericError:
    # a non-finite value makes its weighted term non-finite, so checking
    # the term alone covers both, at one check per point; an interval's
    # node prints as a number
    node = point[0] if len(point) == 1 else point
    if not math.isfinite(v):
        return NumericError(f"integrand returned non-finite value {v!r} at node {node!r}")
    return NumericError(f"weighted integrand value {v!r} overflows at node {node!r}")


def _fsum(terms: list[float], subject: str = "the sum of the weighted integrand values") -> float:
    try:
        return math.fsum(terms)
    except OverflowError:
        pass
    # fsum raises when a partial sum overflows, though the exact sum may fit.
    # Each finite term is an integer multiple of 2^-1074: sum those integers
    # exactly and round once (scaling the floats by 2^-k instead would round
    # terms below 2^(k-1022) and sums that cancel to such values).
    exact = sum(n << (1075 - d.bit_length()) for n, d in map(float.as_integer_ratio, terms))
    try:
        return exact / (1 << 1074)
    except OverflowError:
        raise NumericError(f"{subject} overflows") from None


def _jacobian_and_midpoint(a: float, b: float) -> tuple[float, float]:
    # u = jac * x + mid maps [-1, 1] onto [a, b].  The sum of finite bounds
    # may overflow where its half fits; halving each bound first would
    # round subnormal ones, so that is the fallback only
    mid = (b + a) / 2.0
    if not math.isfinite(mid):
        mid = b / 2.0 + a / 2.0
    return math.ldexp(*_half_width(a, b)), mid


def _half_width(a: float, b: float) -> tuple[float, int]:
    # (b - a)/2 as m * 2**e with 0.5 <= m < 1 (or 0): exact when b - a fits,
    # where the float (b - a)/2 of a subnormal width has been rounded
    width = b - a
    if math.isfinite(width):
        m, e = math.frexp(width)
        return m, e - 1
    return math.frexp(b / 2.0 - a / 2.0)


def apply_rule(rule: QuadratureRule, f: Integrand, a: float, b: float) -> float:
    """Apply an existing rule to the integral of f over [a, b]."""
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError("bounds must be finite")
    if not a < b:
        raise DomainError(f"lower bound {a!r} is not below upper bound {b!r}")
    # an interval is the one-axis box
    return _tensor_sum(rule, f, Box((a,), (b,)))


def integrate_1d(f: Integrand, a: float, b: float, n: int) -> float:
    """Gauss-Legendre approximation of the integral of f over [a, b].

    Exact (to rounding) for polynomials of degree up to 2n - 1.  The
    endpoints are never evaluated: all nodes are interior.
    """
    return apply_rule(gauss_rule(n), f, a, b)


def apply_rule_box(rule: QuadratureRule, f: Integrand, box: Box) -> float:
    """Tensor-product application of one rule along every axis of a box."""
    frames = [_jacobian_and_midpoint(a, b) for a, b in zip(box.lo, box.hi)]
    scales, shift = [jac for jac, _ in frames], 0
    # The loops multiply the axes' weights (b - a)/2 * w before the value.
    # Where that product is not finite at the largest weights (an axis wider
    # than the largest double included), no integrand gives a finite sum;
    # a subnormal half-width has been rounded.  Either way, weigh by the
    # half-widths' mantissas instead and scale the sum by their exponents
    # once; beside a subnormal one each mantissa is halved, so the weight
    # products stay below 1 and no term overflows where its value does
    # not.  Every box that integrates without it keeps its bits.
    peak, widest = 1.0, max(rule.weights)
    for a, b in zip(box.lo, box.hi):
        peak *= (b - a) / 2.0 * widest
    halves = list(map(_half_width, box.lo, box.hi))
    tiny = any(e < sys.float_info.min_exp for _, e in halves)
    if tiny or not math.isfinite(peak):
        halve = 1 if tiny else 0
        scales = [m / 2**halve for m, _ in halves]
        shift = sum(e + halve for _, e in halves)
    axes = [
        [(jac * x + mid, scale * w) for x, w in zip(rule.nodes, rule.weights)]
        for (jac, mid), scale in zip(frames, scales)
    ]
    terms = []
    append, isfinite = terms.append, math.isfinite
    # one loop per axis, with the weight products hoisted; math.prod
    # multiplies ((1*wx)*wy)*wz and 1*wx is exactly wx, so the bits match it
    if len(axes) == 1:
        for x, wx in axes[0]:
            v = f(x)
            term = wx * v
            if not isfinite(term):
                raise _term_error(v, (x,))
            append(term)
    elif len(axes) == 2:
        ax, ay = axes
        for x, wx in ax:
            for y, wy in ay:
                v = f(x, y)
                term = wx * wy * v
                if not isfinite(term):
                    raise _term_error(v, (x, y))
                append(term)
    else:
        ax, ay, az = axes
        for x, wx in ax:
            for y, wy in ay:
                wxy = wx * wy
                for z, wz in az:
                    v = f(x, y, z)
                    term = wxy * wz * v
                    if not isfinite(term):
                        raise _term_error(v, (x, y, z))
                    append(term)
    total = _fsum(terms)
    try:
        return math.ldexp(total, shift)
    except OverflowError:
        raise NumericError("the sum of the weighted integrand values overflows") from None


# apply_rule's name for the loop: a wrapper set on apply_rule_box (the
# bench tracer) leaves a traced interval one apply_rule span
_tensor_sum = apply_rule_box


def integrate_box(f: Integrand, box: Box, n_per_axis: int) -> float:
    """Integral of f over an axis-aligned box, same order on every axis."""
    return apply_rule_box(gauss_rule(n_per_axis), f, box)


def convergence_table(
    f: Integrand,
    a: float,
    b: float,
    orders: Sequence[int],
    reference: float,
) -> list[tuple[int, float, float]]:
    """Rows (n, value, abs_error) against a supplied reference value."""
    if len(orders) == 0:
        raise DomainError("orders must be nonempty")
    if any(n2 <= n1 for n1, n2 in zip(orders, orders[1:])):
        raise DomainError("orders must be strictly ascending")
    _finite("reference", reference)
    rows = []
    for n in orders:
        value = integrate_1d(f, a, b, n)
        # both finite, but the difference may overflow
        error = _finite_result(abs(value - reference), f"abs error of order {n}")
        rows.append((n, value, error))
    return rows
