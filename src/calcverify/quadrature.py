"""Gauss-Legendre rules and their application on intervals and boxes.

Weights come from two independent routes: the closed form
w_i = 2 / ((1 - x_i^2) P_n'(x_i)^2), evaluated in integer fixed point,
and the Vandermonde moment system (rows of node powers, right-hand side
the monomial moments), solved exactly over the rationals.  The float
recurrence for P_n and P_n' is here, for the cache's Gauss check, so a
cached rule loads no ``legendre``, the builder, until a rule is built.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache

from ._record import Record
from .errors import CapabilityError, DomainError, NumericError, _finite, _finite_result, _integer, _interval

MAX_POINTS = 64
# The exact moment-system solve slows steeply with the node count (its
# rationals grow); the closed form is authoritative above this cap.
LINEAR_SYSTEM_MAX_POINTS = 20
# The fewest grid points (n^d) for which apply_rule_box runs an integrand's
# loop nest; below it, importing the generator and generating the nest cost
# more than they save.  Measured as the first integral in a fresh `python -S`
# process from bytecode (CPython 3.11, 2-term integrands): the nest costs
# ~0.44 ms there; it never wins in 1-D (+0.16 ms at n = 64), and 2-D grids
# break even near 118 points, 3-D near 106.  From source, which compiles the
# generator module too, 2-D breaks even near 330 points.  The same grids of a
# separable tree sum each axis once instead (_separable), and any other
# grid keeps the per-point loops' bits.
_NEST_MIN_POINTS = 110


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
            try:
                _interval(a, b)
            except DomainError as exc:
                raise DomainError(f"axis {k}: {exc}") from None

    @property
    def dims(self) -> int:
        return len(self.lo)


@lru_cache(maxsize=None)
def _recurrence_floats(n: int) -> tuple[tuple[float, float, float], ...]:
    # (2k+1, k, k+1) for k = 1..n-1 as floats: each small integer converts
    # exactly, so the recurrence rounds as with ints, minus the conversions
    return tuple((2.0 * k + 1.0, float(k), k + 1.0) for k in range(1, n))


def legendre_value_and_derivative(n: int, x: float) -> tuple[float, float]:
    """(P_n(x), P_n'(x)) by the value recurrence."""
    if n == 0:
        return 1.0, 0.0
    prev, cur = 1.0, x
    for a, b, c in _recurrence_floats(n):
        prev, cur = cur, (a * x * cur - b * prev) / c
    if x == 1.0 or x == -1.0:
        d = 0.5 * n * (n + 1)
        if x < 0.0 and n % 2 == 0:
            d = -d
        return cur, d
    return cur, n * (x * cur - prev) / (x * x - 1.0)


def gauss_rule(n: int) -> QuadratureRule:
    """n-point Gauss-Legendre rule via the closed-form weights.

    Nodes are the roots of P_n (identical to ``legendre_roots(n)``).
    Each positive root's weight is the closed form at the high-precision
    root, with P_n' taken from the fixed-point pass that polished the
    root; only the zero node of odd n takes a pass of its own.  Both
    are correctly rounded doubles, cached by
    ``legendre.gauss_nodes_and_weights``; each call returns an equal, new
    ``QuadratureRule``.
    """
    if not 1 <= _integer("point count", n) <= MAX_POINTS:
        raise CapabilityError(f"point count must be in 1..{MAX_POINTS}, got {n}")
    from .legendre import gauss_nodes_and_weights  # here: a rule read from a cache file loads no legendre

    return QuadratureRule(n, *gauss_nodes_and_weights(n))


def gauss_weights_linear_system(nodes: RootSet | Sequence[float]) -> tuple[float, ...]:
    """Weights from the moment system V w = m, V[i][j] = nodes[j]^i.

    The right-hand side is the monomial moments 2/(i+1) for even i and 0
    for odd i.  The system is solved exactly over the rationals the
    float nodes stand for, by the Bjorck-Pereyra elimination for
    Vandermonde systems (Math. Comp. 24 (1970) 893-903), and each weight
    is rounded once, so the Vandermonde conditioning costs no accuracy.
    """
    from .legendre import RootSet

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


def _midpoint(a: float, b: float) -> float:
    # u = jac * x + mid maps [-1, 1] onto [a, b], jac the half-width.  The sum
    # of finite bounds may overflow where its half fits; halving each bound
    # first would round subnormal ones, so that is the fallback only
    mid = (b + a) / 2.0
    return mid if math.isfinite(mid) else b / 2.0 + a / 2.0


def _half_width(a: float, b: float) -> tuple[float, int]:
    # (b - a)/2 as m * 2**e with 0.5 <= m < 1 (or 0): exact when b - a fits,
    # where the float (b - a)/2 of a subnormal width has been rounded
    width = b - a
    if math.isfinite(width):
        m, e = math.frexp(width)
        return m, e - 1
    return math.frexp(b / 2.0 - a / 2.0)


def apply_rule(rule: QuadratureRule, f: Callable[..., float], a: float, b: float) -> float:
    """Apply an existing rule to the integral of f over [a, b]."""
    _interval(a, b)
    # an interval is the one-axis box
    return _tensor_sum(rule, f, Box((a,), (b,)))


def integrate_1d(f: Callable[..., float], a: float, b: float, n: int) -> float:
    """Gauss-Legendre approximation of the integral of f over [a, b].

    Exact (to rounding) for polynomials of degree up to 2n - 1.  The
    endpoints are never evaluated: all nodes are interior.
    """
    _interval(a, b)  # before the rule, so a rejected interval builds none
    return apply_rule(gauss_rule(n), f, a, b)


def apply_rule_box(rule: QuadratureRule, f: Callable[..., float], box: Box) -> float:
    """Tensor-product application of one rule along every axis of a box.

    A rule whose nodes and weights differ in length, or that has no node,
    raises DomainError.
    """
    if not 0 < len(rule.nodes) == len(rule.weights):
        raise DomainError("a rule needs as many weights as nodes, and at least one node")
    halves = list(map(_half_width, box.lo, box.hi))
    jacs = [math.ldexp(m, e) for m, e in halves]
    scales, shift = jacs, 0
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
    tiny = any(e < sys.float_info.min_exp for _, e in halves)
    if tiny or not math.isfinite(peak):
        halve = 1 if tiny else 0
        scales = [m / 2**halve for m, _ in halves]
        shift = sum(e + halve for _, e in halves)
    axes = [
        [(jac * x + mid, scale * w) for x, w in zip(rule.nodes, rule.weights)]
        for jac, mid, scale in zip(jacs, map(_midpoint, box.lo, box.hi), scales)
    ]
    # an integrand from expr.as_function can run a grid of _NEST_MIN_POINTS
    # points or more as generated code; it returns the terms it finished, and
    # these loops rerun the outer node it stopped in, raising the error at its
    # point.  A smaller grid runs these loops alone: the same bits and errors,
    # without generating (or importing the generator of) code it would run once
    nest = getattr(f, "_nest", None) if len(rule.nodes) ** len(axes) >= _NEST_MIN_POINTS else None
    # on such a grid, over two axes or more with none rescaled, a separable
    # tree sums each axis once (_separable); None sends the grid on to the nest
    product = getattr(f, "_product", None) if nest is not None and len(axes) > 1 and not shift else None
    value = product(axes) if product is not None else None
    if value is not None:
        return value
    terms = nest(axes) if nest is not None else []
    block = len(rule.nodes) ** (len(axes) - 1)  # the points of one outer node
    start = len(terms) // block
    del terms[start * block :]
    append, isfinite = terms.append, math.isfinite
    # one loop per axis, with the weight products hoisted; math.prod
    # multiplies ((1*wx)*wy)*wz and 1*wx is exactly wx, so the bits match it
    if len(axes) == 1:
        for x, wx in axes[0][start:]:
            v = f(x)
            term = wx * v
            if not isfinite(term):
                raise _term_error(v, (x,))
            append(term)
    elif len(axes) == 2:
        ax, ay = axes
        for x, wx in ax[start:]:
            for y, wy in ay:
                v = f(x, y)
                term = wx * wy * v
                if not isfinite(term):
                    raise _term_error(v, (x, y))
                append(term)
    else:
        ax, ay, az = axes
        for x, wx in ax[start:]:
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


def integrate_box(f: Callable[..., float], box: Box, n_per_axis: int) -> float:
    """Integral of f over an axis-aligned box, same order on every axis."""
    return apply_rule_box(gauss_rule(n_per_axis), f, box)


def convergence_table(
    f: Callable[..., float],
    a: float,
    b: float,
    orders: Sequence[int],
    reference: float,
) -> list[tuple[int, float, float]]:
    """Rows (n, value, abs_error) against a supplied reference value."""
    if len(orders) == 0:
        raise DomainError("orders must be nonempty")
    for n in orders:
        _integer("point count", n)
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
