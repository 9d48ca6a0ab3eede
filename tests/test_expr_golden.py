"""Pinned output of the expression printer and evaluators.

One SHA-256 covers, for a seeded corpus of ``random_tree`` expressions
(reparsed from fully parenthesized text, so each node carries a real
offset) and a few hand-built trees with negative literals: the
``to_string`` text, and for each binding set the ``evaluate`` result and
the ``as_function`` results in declared and in swapped variable order.
A result is its ``float.hex``; a call that raises is pinned as
(exception type, offset, message).  The binding sets reach every
evaluation error, the ``float()`` conversion of bound values, NaN
inputs, swapped builtins and missing variables.
"""

import hashlib
import math
import random

from test_expr import full_parens, random_tree

from calcverify import as_function, evaluate, parse, to_string
from calcverify.expr import BinOp, Call, Neg, Num, Var

GOLDEN = "d275ca4dbb4d38394a3a75ba7bd569e09b459b276d517ffbefa6850dc7557c9f"

SWAPPED = {"sin": math.cos, "ln": math.log2, "sqrt": lambda t: math.sqrt(t) if t < 2 else math.log(-t)}


def outcome(call):
    try:
        v = call()
    except Exception as exc:  # noqa: BLE001 - the exception itself is the pinned result
        return f"{type(exc).__name__} {getattr(exc, 'offset', None)} {exc}"
    return f"{type(v).__name__} {float(v).hex()}"


def binding_sets(rng):
    return [
        ({"x": rng.uniform(-3, 3), "y": rng.uniform(-3, 3)}, None),
        ({"x": rng.uniform(-3, 3), "y": rng.uniform(-3, 3)}, SWAPPED),
        ({"x": 0.0, "y": -1.0}, None),
        ({"x": 1e155, "y": -1e300}, None),
        ({"x": 3, "y": "0.5"}, None),
        ({"x": math.nan, "y": 2.0}, None),
        ({"x": "abc", "y": 1.0}, None),
        ({"x": 1.5}, None),
    ]


def corpus():
    rng = random.Random(20261018)
    trees = [parse(full_parens(random_tree(rng, 5)), ["x", "y"]) for _ in range(400)]
    trees += [
        BinOp("^", Num(-2.0, 0), Num(3.0, 2), 1),
        Neg(Num(-0.5, 1), 0),
        BinOp("-", Var("x", 0), Num(-1.25, 2), 1),
        Call("abs", BinOp("*", Num(-3.0, 4), Neg(Var("y", 10), 9), 8), 0),
    ]
    for tree in trees:
        yield f"text {to_string(tree)}"
        for bindings, functions in binding_sets(rng):
            values = list(bindings.values())
            yield "eval " + outcome(lambda: evaluate(tree, bindings, functions))
            yield "fn " + outcome(lambda: as_function(tree, list(bindings), functions)(*values))
            yield "rev " + outcome(lambda: as_function(tree, list(bindings)[::-1], functions)(*values[::-1]))


def test_expression_output_matches_golden():
    lines = list(corpus())
    assert len(lines) == 404 * 25
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == GOLDEN
