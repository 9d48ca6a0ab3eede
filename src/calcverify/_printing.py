"""Printing an expression tree: ``to_string``, which only the library offers.

No CLI path prints a tree, so none compiles this.  Where the name is
imported from: ``calcverify._NAMES``.
"""

from __future__ import annotations

from .expr import _PREC, BinOp, Neg, Num, Var

_NEG_PREC = 25  # unary '-' binds between * and ^, as the parser's factor rule reads it


def to_string(e: Expr) -> str:
    """Render with the fewest parentheses that reparse to the same tree.

    One top-down pass without recursion: the stack holds literal text
    and (node, outer precedence, parenthesize on a tie) items, and each
    piece of output is appended once, so the time is linear in the size.
    """
    out: list[str] = []
    todo: list = [(e, 0, False)]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, outer, tie = item
        prec = _PREC[node.op] if isinstance(node, BinOp) else _NEG_PREC if isinstance(node, Neg) else 100
        if prec < outer or (prec == outer and tie):
            out.append("(")
            todo.append(")")
        if isinstance(node, Num):
            out.append(repr(node.value) if node.value >= 0 else f"({node.value!r})")
        elif isinstance(node, Var):
            out.append(node.name)
        elif isinstance(node, Neg):
            out.append("-")
            todo.append((node.operand, _NEG_PREC, False))
        elif isinstance(node, BinOp):
            groups_right = node.op == "^"  # the others group left
            todo += ((node.right, prec, not groups_right), node.op, (node.left, prec, groups_right))
        else:
            out.append(node.func + "(")
            todo += (")", (node.arg, 0, False))
    return "".join(out)
