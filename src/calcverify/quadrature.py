"""Gauss-Legendre rules, their text form, and their application on intervals and boxes.

Weights come from the closed form w_i = 2 / ((1 - x_i^2) P_n'(x_i)^2),
evaluated in integer fixed point by ``legendre``, the builder.  The float
recurrence for P_n and P_n' is here, for the cache's Gauss check, so a
cached rule loads no builder, and so is ``dumps_tables``, so ``nodes``
loads no ``tables``.  The moment-system oracle for the weights is in
``_exact``, which no CLI path loads; its names resolve here too.  An interval
is the one-axis box: the CLI and ``integrate_1d`` hand ``apply_rule_box`` a
one-axis ``Box``, and ``apply_rule`` is the library's interval entry.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache

from ._record import Record
from .errors import DomainError, NumericError, _count, _finite, _finite_result, _integer, _interval

MAX_POINTS = 64
FORMAT_NAME = "GAUSSTAB"
FORMAT_VERSION = 1


class QuadratureRule(Record):
    """An n-point rule on [-1, 1]: ascending interior nodes, positive weights."""

    n: int
    nodes: tuple[float, ...]
    weights: tuple[float, ...]


def dumps_tables(rules: Iterable[QuadratureRule]) -> str:
    """Serialize rules (deduplicated by n, ascending); DomainError unless each has n nodes and n weights."""
    by_n = {rule.n: rule for rule in rules}
    lines = [f"{FORMAT_NAME} {FORMAT_VERSION}"]
    for n in sorted(by_n):
        rule = by_n[n]
        if not len(rule.nodes) == len(rule.weights) == n:
            raise DomainError(f"rule n={n} has {len(rule.nodes)} nodes and {len(rule.weights)} weights")
        lines.append(f"N {n}")
        lines.extend(f"{x:.17g} {w:.17g}" for x, w in zip(rule.nodes, rule.weights))
    return "\n".join(lines) + "\n"


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
        # the one bounds check of every box and interval; only a box's error names the axis
        for k, (a, b) in enumerate(zip(lo, hi)):
            try:
                _interval(a, b)
            except DomainError as exc:
                raise DomainError(f"axis {k}: {exc}" if len(lo) > 1 else str(exc)) from None

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
    _count("point count", n, MAX_POINTS)
    from .legendre import gauss_nodes_and_weights  # here: a rule read from a cache file loads no legendre

    return QuadratureRule(n, *gauss_nodes_and_weights(n))


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
    """Apply an existing rule to the integral of f over [a, b].

    The library's interval entry: ``apply_rule_box`` over the one-axis box
    ``Box((a,), (b,))``, which the CLI and ``integrate_1d`` build themselves.
    """
    return apply_rule_box(rule, f, Box((a,), (b,)))


def integrate_1d(f: Callable[..., float], a: float, b: float, n: int) -> float:
    """Gauss-Legendre approximation of the integral of f over [a, b].

    Exact (to rounding) for polynomials of degree up to 2n - 1.  The
    endpoints are never evaluated: all nodes are interior.
    """
    return integrate_box(f, Box((a,), (b,)), n)  # the box first: a rejected interval builds no rule


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
    # an as_function integrand picks its grid's route (_box_sum): the axis sums'
    # value, which no 2**shift scales, so for shift 0 only, or the terms its nest
    # finished, maybe none; these loops rerun the outer node it stopped in
    terms = f._box_sum(axes, shift != 0) if hasattr(f, "_box_sum") else []
    if isinstance(terms, float):
        return terms
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


# moved to _exact, which no CLI path loads: old imports and pickles find them here
_EXACT = ("LINEAR_SYSTEM_MAX_POINTS", "gauss_weights_linear_system")


def __getattr__(name: str):
    if name not in _EXACT:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(__import__(f"{__package__}._exact", fromlist=["__name__"]), name)
