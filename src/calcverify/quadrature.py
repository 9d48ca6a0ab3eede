"""Gauss-Legendre rules and their text form.

Weights come from the closed form w_i = 2 / ((1 - x_i^2) P_n'(x_i)^2),
evaluated in integer fixed point by ``legendre``, the builder.  The float
recurrence for P_n and P_n' is here, for the cache's Gauss check, so a
cached rule loads no builder, and so is ``dumps_tables``, so ``nodes``
loads no ``tables``.  A rule's application on intervals and boxes
(``Box``, ``apply_rule``, ``apply_rule_box``, ``integrate_1d``,
``integrate_box``, ``convergence_table``) is in ``_box``, which only the
calls that integrate load, and the moment-system oracle for the weights
is in ``_exact``, which no CLI path loads (their names here:
``calcverify._NAMES``).
"""

from __future__ import annotations

from functools import lru_cache

from . import _elsewhere
from ._record import Record
from .errors import DomainError, _count

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


def __getattr__(name: str):
    return _elsewhere(__name__, name)
