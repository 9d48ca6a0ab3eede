"""Box integrals of separable trees, as products of one-axis sums.

Flatten a tree's ``+``, ``-`` and unary ``-`` into signed terms, and each
term's ``*`` into factors.  Where every factor reads at most one variable,
Fubini's theorem makes the tensor-product rule's n^d-point sum of a term
the product of its one-axis sums: sum_i w_i * (product of the factors of
axis k at node i), or sum_i w_i on an axis that no factor reads.  The
integral is the fsum over terms of sign x constant factors x the product
of the axis sums, and each factor is evaluated by the checked interpreter
once per node of its axis: d*n evaluations where the point route makes
n^d.  ``expr.as_function``'s ``_box_sum``, which alone picks a grid's
route, tries it before the nest on a grid of ``_NEST_MIN_POINTS`` points
or more, over two axes or more, with no axis rescaled (``shift`` 0).

``integral`` returns None, and the point route runs, unless every factor
evaluates and the terms' sum of products of max(1, |factor|) at the
worst node of each axis, times the product over the axes of
max(1, sum |w|), is below 2^1000.  That bounds every product and sum
that either route forms, so the point route would raise nothing either:
errors keep their text, offset and point.

Bound.  Let u = 2^-53 (eps/2), q the tree's node count, d the axes, and
M the weighted grid sum of the sum over terms of |term|.  Both routes
take the same factor values (the same doubles from the same operations),
and while no product or sum is subnormal their values differ by at most
(q + 3d + 2) u M.  Let a term have m factors, m_k of them on axis k and
m_0 constant, K the most in a term, and T terms; R is the exact weighted
sum of the rounded factor values.
- The point route rounds a term's product m - 1 times, the sum of terms
  T - 1, the weight product d - 1 and the weighted term once, then fsum
  rounds once: it is within gamma(K + T + d - 2) M + u|value| of R.
- Here the summand w * product rounds m_k times, each axis sum once,
  and the product of the constants and the d axis sums m_0 + d - 1
  times, so a term is within gamma(m + 2d - 1) of its share of M, and
  the last fsum rounds once: within gamma(K + 2d - 1) M + u|value| of R.
- A term of m factors takes at least 2m - 1 nodes and joining T terms
  T - 1 more, so 2K + T <= q + 2: the gammas add to at most
  gamma(q + 3d - 1).  Both values are at most (1 + gamma) M, and the
  node cap keeps q u below 2^-40, where gamma(k) = k u / (1 - k u)
  exceeds k u by far less than the last u M.
"""

from __future__ import annotations

import math

from .expr import _DEFAULT_IMPLS, BinOp, EvalDomainError, Neg, Var, _interpret


def _split(node: Expr, ops: str) -> list[tuple[float, Expr]]:
    # the operands of node's chain of binary ops in ops, left to right, each
    # with the sign that '-' and unary '-' put on it
    leaves, todo = [], [(node, 1.0)]
    while todo:
        node, sign = todo.pop()
        if type(node) is Neg:
            todo.append((node.operand, -sign))
        elif type(node) is BinOp and node.op in ops:
            todo += ((node.right, -sign if node.op == "-" else sign), (node.left, sign))
        else:
            leaves.append((sign, node))
    return leaves


def integral(tree: Expr, names: tuple[str, ...], axes: list) -> float | None:
    """The tensor-product sum of tree over ``axes``, whose axis k binds
    ``names[k]`` and lists (scaled node, scaled weight) pairs, or None."""
    position = {name: k for k, name in enumerate(names)}  # a repeated name binds its last axis
    plan = []  # per term: its sign, and its factors' post-orders per axis, then the constant ones
    for sign, term in _split(tree, "+-"):
        factors = [[] for _ in range(len(axes) + 1)]
        for s, factor in _split(term, "*"):
            sign *= s
            order = factor._order
            reads = {position[node.name] for node in order if type(node) is Var}
            if len(reads) > 1:
                return None
            factors[reads.pop() if reads else -1].append(order)
        plan.append((sign, factors))
    # per axis, its nodes' bindings and weights; the constants sum over one node of weight 1
    grid = [[({name: x}, w) for x, w in axis] for name, axis in zip(names, axes)] + [[({}, 1.0)]]
    scale = math.prod(max(sum(abs(w) for _, w in axis), 1.0) for axis in grid)  # max keeps a NaN first argument
    bound, products = 0.0, []
    try:
        weights = [math.fsum(w for _, w in axis) for axis in grid]
        for sign, factors in plan:
            peak, sums = 1.0, []
            for axis, orders, total in zip(grid, factors, weights):
                if orders:
                    columns = [[_interpret(order, at, _DEFAULT_IMPLS) for at, _ in axis] for order in orders]
                    peak *= math.prod(max(max(map(abs, column)), 1.0) for column in columns)
                    total = math.fsum(w * math.prod(values) for (_, w), *values in zip(axis, *columns))
                sums.append(total)
            bound += peak
            products.append(sign * math.prod(sums))
    except (EvalDomainError, OverflowError, ValueError):  # a factor or an fsum failed; the point route raises
        return None
    if not bound * scale < 2.0**1000:  # which also holds every sum here finite
        return None
    return math.fsum(products)
