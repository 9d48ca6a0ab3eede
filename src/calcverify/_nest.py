"""The loop-nest generator behind ``expr.as_function``'s ``_box_sum``.

It compiles a parsed tree to a box integral's whole loop nest.  Only a
grid that ``_box_sum`` sends to the nest runs it, so
``expr`` imports this module when it first generates code for a tree,
and a call that integrates no such grid never loads it.
"""

from __future__ import annotations

import math

from .expr import _DEFAULT_IMPLS, BinOp, Neg, Num, Var


def _all_finite(values: list[str]) -> str:
    # 0.0 * v is +-0 for a finite v and NaN otherwise, so a sum of them does not
    # overflow where the values would; chunks keep compile() from nesting deeply
    chunks = (values[k : k + 64] for k in range(0, len(values), 64))
    return " and ".join(
        "_isfinite(%s)" % (chunk[0] if len(chunk) == 1 else " + ".join("0.0 * " + v for v in chunk))
        for chunk in chunks
    )


def _generate(order: list[Expr], variables: Sequence[str]) -> Callable:
    """Compile a parsed tree's post-order list to ``nest(axes)``.

    The nest runs apply_rule_box's loops over ``axes``, whose axis k
    binds ``variables[k]``, doing the interpreter's arithmetic under the
    default builtins: one statement per non-leaf node.  A node that
    reads one axis k >= 1 and no other goes in axis k's table: a loop
    over ``axes[k]``, run before the nest's loops, that keeps one row per
    quadrature node, holding its value, its weight and the temps read
    elsewhere; axis k's loop then iterates those rows.  Any other node
    goes at the top of the loop of the last axis it reads, or before the
    loops.  No text from the tree reaches the source: names, constants
    and functions are bound in the namespace.  Only a divisor, the
    operands of '^' and the argument of exp are tested, after the
    statements computing them: elsewhere a default operation maps a
    non-finite operand to a non-finite result, or raises.  It builds,
    tests and returns the weighted terms as those loops do, and a term's
    test covers its value's, as the weight is finite.  On any exception
    or failed test it returns the terms it has finished (none, in a
    table), and the caller reruns the checked route from there for the
    error.
    """
    position = {name: k for k, name in enumerate(variables)}  # a repeated name binds its last axis
    depth = len(variables)
    ns: dict = {"_pow": math.pow, "_isfinite": math.isfinite}
    # per place, each with its statements and the values it tests: 0 before the
    # loops, k + 1 in axis k's loop, and depth + k in axis k's table for k >= 1
    lines, tested = ([[] for _ in range(2 * depth)] for _ in range(2))
    rows = [{} for _ in range(2 * depth)]  # per table, its temps read elsewhere, in order
    stack: list[tuple] = []  # per interpreter stack value: its source, the axes it reads as bits, its place
    for i, node in enumerate(order):
        kind = type(node)
        if kind is Num:
            ns["_c%d" % i] = node.value
            stack.append(("_c%d" % i, 0, 0))
            continue
        if kind is Var:
            k = position[node.name]
            stack.append(("_v%d" % k, 1 << k, k + 1))
            continue
        operands = stack[-2:] if kind is BinOp else stack[-1:]
        del stack[-len(operands) :]
        reads = operands[0][1] | operands[-1][1]
        one = reads > 1 and reads & (reads - 1) == 0  # one axis, not the first
        place = depth + reads.bit_length() - 1 if one else reads.bit_length()
        for value, _, at in operands:
            if at > depth and at != place:
                rows[at][value] = None
        a, temp = operands[0][0], "_t%d" % i
        if kind is Neg:
            lines[place].append("%s = -%s" % (temp, a))
        elif kind is BinOp:
            b = operands[1][0]
            line = "%s = _pow(%s, %s)" if node.op == "^" else "%s = %s " + node.op + " %s"
            lines[place].append(line % (temp, a, b))
            tested[place] += [a, b] if node.op == "^" else [b] if node.op == "/" else []
        else:
            ns["_f%d" % i] = _DEFAULT_IMPLS[node.func]
            lines[place].append("%s = _f%d(%s)" % (temp, i, a))
            tested[place] += [a] if node.func == "exp" else []
        stack.append((temp, reads, place))
    root, _, at = stack[0]
    if at > depth:
        rows[at][root] = None
    # the weights multiply as in apply_rule_box's loops, bit for bit
    if depth > 1:
        lines[2].append("_w01 = _w0 * _w1")
    lines[depth].append("_term = %s * %s" % (("_w0", "_w01", "_w01 * _w2")[depth - 1], root))
    tested[depth].append("_term")

    def block(place: int, indent: str) -> list[str]:
        check = ["if not (%s):" % _all_finite(tested[place]), "    return _terms"] if tested[place] else []
        return [indent + line for line in lines[place] + check]

    # what reads no axis, then the tables, run before one loop per axis, which
    # iterates its table's rows if it has one
    before, loops = block(0, ""), []
    for k in range(depth):
        indent, row, over = "    " * k, "_v%d, _w%d" % (k, k), "axes[%d]" % k
        if k and lines[depth + k]:
            before += ["_r%d = []" % k, "for %s in %s:" % (row, over), *block(depth + k, "    ")]
            row, over = ", ".join([row, *rows[depth + k]]), "_r%d" % k
            before.append("    _r%d.append((%s))" % (k, row))
        loops += [indent + "for %s in %s:" % (row, over), *block(k + 1, indent + "    ")]
    # on any exception too the nest returns the terms it finished; the caller reruns the
    # checked route from there, which raises the exception again or the checked error
    source = "def nest(axes):\n    _terms = []\n    _append = _terms.append\n    try:\n"
    source += "".join("        %s\n" % line for line in before + loops + ["    " * depth + "_append(_term)"])
    exec(source + "    except Exception:\n        pass\n    return _terms\n", ns)
    return ns["nest"]
