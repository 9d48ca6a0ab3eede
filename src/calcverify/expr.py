"""Recursive-descent parser and evaluator for small math expressions.

Grammar (whitespace insignificant):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?          -- right-associative, so
                                             2^3^2 = 512 and -x^2 = -(x^2)
    atom   := number | name | name '(' expr ')' | '(' expr ')'
    number := (digits ['.' [digits]] | '.' digits) [('e'|'E') ['+'|'-'] digits]
    digits := one or more ASCII 0-9; the literal must be a finite double

A name followed by '(' must be one of the builtins sin, cos, tan, exp,
ln, sqrt, abs; any other name is a variable and must be declared.
Implicit multiplication is rejected: write 2*x, not 2x.  Each '(',
call, unary '-' and '^' exponent nests one level; past 100 levels the
parser raises ParseError.  Printing and the checked evaluator use an
explicit stack, so they work at any depth.

Under the default builtins, ``evaluate`` compiles each tree that
``parse`` returned to one Python function the first time it sees the
tree, in the manner of SymPy's ``lambdify``: one statement per node, so
depth does not matter either.  The function is kept on the tree.  It
tests finiteness only where a non-finite value can vanish, and keeps
each subexpression that does not read the last declared variable for as
long as the floats it reads are the same objects, so a tensor loop
computes it once per outer point.  Custom ``functions``, trees built by
hand or unpickled, trees over ``_MAX_COMPILED_NODES`` nodes, and any
point where the compiled code raises or meets a non-finite value run the
checked interpreter, so values and errors are exactly the interpreter's.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from collections.abc import Callable, Mapping, Sequence
from functools import cached_property

from ._record import Record
from .errors import CalcVerifyError, DomainError

BUILTIN_FUNCTIONS = ("sin", "cos", "tan", "exp", "ln", "sqrt", "abs")
# the parser recurses a few frames per level; this keeps it far from
# Python's default recursion limit of 1000
_MAX_NESTING = 100
# generating code costs ~10 us a node, so a tree past this size is
# interpreted: a 100 000-term sum evaluated once would wait ~2 s for it
_MAX_COMPILED_NODES = 1000
# str.isdigit() also accepts '²', which float() rejects, and '١', which it reads as 1
_DIGITS = "0123456789"

_DEFAULT_IMPLS: dict[str, Callable[[float], float]] = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "ln": math.log,
    "sqrt": math.sqrt,
    "abs": math.fabs,
}


class ParseError(CalcVerifyError):
    """Rejected input text; ``offset`` indexes at or before the bad byte."""

    def __init__(self, message: str, offset: int, expected: str | None = None):
        super().__init__(message)
        self.message = message
        self.offset = offset
        self.expected = expected
        self.source = None  # the text parse read, set by parse

    def __str__(self) -> str:
        s = f"{self.message} at offset {self.offset}"
        if self.expected:
            s += f" (expected {self.expected})"
        return s


class EvalDomainError(DomainError):
    """Evaluation left the real domain; ``offset`` locates the culprit node.

    ``overflow`` is true when a value overflowed or came out non-finite,
    a numeric failure rather than a point outside a function's domain.
    ``source`` is the text ``offset`` indexes: the one parse read, or
    None for a tree built by hand.
    """

    def __init__(self, message: str, offset: int, overflow: bool = False):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset
        self.overflow = overflow
        self.source = None


class _Node(Record):
    # what evaluate derives from a tree, kept in the instance __dict__
    # (which records leave writable) and out of eq, hash and repr
    _source = None  # the text parse read, on the tree it returns; not a field
    _names: tuple = ()  # the variables parse declared, likewise

    @cached_property
    def _order(self) -> list["Expr"]:
        return _postorder(self)

    @cached_property
    def _program(self) -> Callable | None:
        # only a tree parse returned, under the node cap, gets code
        order = self._order
        return _generate(order) if self._names and len(order) <= _MAX_COMPILED_NODES else None

    def __getstate__(self) -> dict:
        # a generated function cannot be pickled; the fields are public names
        return {k: v for k, v in self.__dict__.items() if not k.startswith("_")}


class Num(_Node):
    value: float
    offset: int


class Var(_Node):
    name: str
    offset: int


class Neg(_Node):
    operand: "Expr"
    offset: int


class BinOp(_Node):
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"
    offset: int


class Call(_Node):
    func: str
    arg: "Expr"
    offset: int


Expr = Num | Var | Neg | BinOp | Call
_Token = namedtuple("_Token", "kind text offset")  # kind: NUMBER | NAME | OP | END


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _DIGITS or (ch == "." and i + 1 < n and source[i + 1] in _DIGITS):
            start = i
            while i < n and source[i] in _DIGITS:
                i += 1
            if i < n and source[i] == ".":
                i += 1
                while i < n and source[i] in _DIGITS:
                    i += 1
            if i < n and source[i] in "eE":
                j = i + 1
                if j < n and source[j] in "+-":
                    j += 1
                if j >= n or source[j] not in _DIGITS:
                    raise ParseError("malformed number", start, "digits in the exponent")
                i = j
                while i < n and source[i] in _DIGITS:
                    i += 1
            tokens.append(_Token("NUMBER", source[start:i], start))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            tokens.append(_Token("NAME", source[start:i], start))
            continue
        if ch in "+-*/^()":
            tokens.append(_Token("OP", ch, i))
            i += 1
            continue
        raise ParseError(
            f"unexpected character {ch!r}", i, "a number, name, operator, or parenthesis"
        )
    tokens.append(_Token("END", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], variables: Sequence[str]):
        self.tokens = tokens
        self.pos = 0
        self.variables = frozenset(variables)
        self.depth = 0  # open '(', calls, unary minus and '^' exponents

    @property
    def cur(self) -> _Token:
        return self.tokens[self.pos]

    def _advance(self) -> _Token:
        tok = self.cur
        self.pos += 1
        return tok

    def _at_op(self, chars: str) -> bool:
        return self.cur.kind == "OP" and self.cur.text in chars

    def parse(self) -> Expr:
        e = self._expr()
        if self.cur.kind != "END":
            raise ParseError("trailing input", self.cur.offset, "end of input")
        return e

    def _expr(self) -> Expr:
        left = self._term()
        while self._at_op("+-"):
            op = self._advance()
            right = self._term()
            left = BinOp(op.text, left, right, op.offset)
        return left

    def _term(self) -> Expr:
        left = self._factor()
        while self._at_op("*/"):
            op = self._advance()
            right = self._factor()
            left = BinOp(op.text, left, right, op.offset)
        return left

    def _factor(self) -> Expr:
        # every recursive path passes through here
        if self.depth > _MAX_NESTING:
            raise ParseError("expression nested too deeply", self.cur.offset)
        self.depth += 1
        if self._at_op("-"):
            tok = self._advance()
            e: Expr = Neg(self._factor(), tok.offset)
        else:
            e = self._power()
        self.depth -= 1
        return e

    def _power(self) -> Expr:
        base = self._atom()
        if self._at_op("^"):
            op = self._advance()
            exponent = self._factor()
            return BinOp("^", base, exponent, op.offset)
        return base

    def _atom(self) -> Expr:
        tok = self.cur
        if tok.kind == "NUMBER":
            self._advance()
            value = float(tok.text)
            if not math.isfinite(value):
                raise ParseError("number literal overflows", tok.offset, "a finite number")
            return Num(value, tok.offset)
        if tok.kind == "NAME":
            self._advance()
            if self._at_op("("):
                if tok.text not in BUILTIN_FUNCTIONS:
                    raise ParseError(
                        f"unknown function '{tok.text}'",
                        tok.offset,
                        "one of " + ", ".join(BUILTIN_FUNCTIONS),
                    )
                return Call(tok.text, self._parenthesized(), tok.offset)
            if tok.text not in self.variables:
                raise ParseError(
                    f"unknown variable '{tok.text}'",
                    tok.offset,
                    "one of: " + ", ".join(sorted(self.variables)),
                )
            return Var(tok.text, tok.offset)
        if self._at_op("("):
            return self._parenthesized()
        raise ParseError(
            "expected a value",
            tok.offset,
            "a number, variable, function call, or '('",
        )

    def _parenthesized(self) -> Expr:
        # reads '(' expr ')' from the current '('
        self._advance()
        e = self._expr()
        if not self._at_op(")"):
            raise ParseError("unbalanced parenthesis", self.cur.offset, "')'")
        self._advance()
        return e


def parse(source: str, variables: Sequence[str]) -> Expr:
    """Parse ``source`` over the declared variable names."""
    if len(variables) == 0:
        raise DomainError("at least one variable name is required")
    seen = set()
    for name in variables:
        if not (name.isidentifier() and name.isascii()):
            raise DomainError(f"variable name {name!r} is not an ASCII identifier")
        if name in seen:
            raise DomainError(f"duplicate variable name {name!r}")
        seen.add(name)
    try:
        tree = _Parser(_tokenize(source), variables).parse()
    except ParseError as pe:
        pe.source = source
        raise
    tree.__dict__["_source"] = source
    tree.__dict__["_names"] = tuple(variables)
    return tree


def _postorder(e: Expr) -> list[Expr]:
    # children before parents, left before right, without recursion
    order, todo = [], [e]
    while todo:
        node = todo.pop()
        order.append(node)
        if isinstance(node, BinOp):
            todo += (node.left, node.right)
        elif isinstance(node, (Neg, Call)):
            todo.append(node.operand if isinstance(node, Neg) else node.arg)
    return order[::-1]


_BINOPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv, "^": math.pow}


def _interpret(order: list[Expr], bindings: Mapping[str, float], impls: Mapping[str, Callable]) -> float:
    # the checked evaluator: one stack loop over the post-order list
    stack: list[float] = []
    push, pop = stack.append, stack.pop
    for node in order:
        kind = type(node)
        if kind is Num:
            push(node.value)
        elif kind is Var:
            try:
                push(float(bindings[node.name]))
            except KeyError:
                raise EvalDomainError(f"unbound variable '{node.name}'", node.offset) from None
            except OverflowError:
                raise EvalDomainError(f"variable '{node.name}' overflows", node.offset, overflow=True) from None
        elif kind is Neg:
            stack[-1] = -stack[-1]
        elif kind is BinOp:
            b, a = pop(), stack[-1]
            try:
                v = _BINOPS[node.op](a, b)
                finite = math.isfinite(v)  # an int past the double range overflows here
            except ZeroDivisionError:
                raise EvalDomainError("division by zero", node.offset) from None
            except ValueError:
                raise EvalDomainError(f"power {a!r} ^ {b!r} leaves the reals", node.offset) from None
            except OverflowError:
                raise EvalDomainError("overflow", node.offset, overflow=True) from None
            if not finite:
                raise EvalDomainError("non-finite result", node.offset, overflow=True)
            stack[-1] = v
        else:
            a = stack[-1]
            try:
                v = impls[node.func](a)
                finite = math.isfinite(v)
            except ValueError:
                raise EvalDomainError(f"{node.func}({a!r}) is outside the real domain", node.offset) from None
            except OverflowError:
                raise EvalDomainError(f"{node.func}({a!r}) overflows", node.offset, overflow=True) from None
            if not finite:
                raise EvalDomainError("non-finite result", node.offset, overflow=True)
            stack[-1] = v
    try:
        finite = math.isfinite(stack[0])  # a bound value or literal that no operation tested
    except OverflowError:  # an int literal past the double range, in a tree built by hand
        finite = False
    if not finite:
        raise EvalDomainError("non-finite result", order[-1].offset, overflow=True)
    return stack[0]


def _all_finite(values: list[str]) -> str:
    # a sum is non-finite when a term is; chunks keep compile() from nesting deeply
    return " and ".join("_isfinite(%s)" % " + ".join(values[k : k + 64]) for k in range(0, len(values), 64))


# a memo site's code: reuse the slot's value while its floats are the
# objects just loaded, else compute it and store it once checked
_SITE = """_s = %(slot)s[0]
if %(hit)s:
    %(value)s = _s[%(at)d]
else:
    %(body)s
    if not (%(test)s):
        return None
    %(slot)s[0] = (%(key)s)"""


def _generate(order: list[Expr]) -> Callable:
    """Compile a parsed tree's post-order list to ``program(bindings)``.

    The program does the interpreter's arithmetic under the default
    builtins in the interpreter's order, one statement per non-leaf
    node.  It returns the value only when no BinOp or Call result is
    non-finite; on any exception or a failed check it returns None, and
    evaluate reruns the interpreter, which raises the error.  Names,
    constants and function keys are bound in the namespace, so no text
    from the tree reaches the source.

    Two shortcuts keep that true at less cost.  Each default operation
    maps a non-finite operand to a non-finite result or raises, except
    at a divisor, the operands of '^' and the argument of exp, so only
    those and the root are tested.  And each maximal non-leaf subtree
    that does not read the last variable parse declared is a memo site:
    its slot holds (the floats it reads, its value), stored as one tuple
    once its tested values pass, and reused while each float ``is`` the
    one just loaded; holding those floats keeps their ids from being
    reused.
    """
    names = order[-1]._names
    ns: dict = {"_pow": math.pow, "_isfinite": math.isfinite, "_D": _DEFAULT_IMPLS}
    loads: dict = {}  # variable name -> the local that holds its float
    head: list[str] = []
    # per value the interpreter's stack would hold: its source, whether it reads
    # the last variable, and the lists of its lines, tested values and floats read
    stack: list[tuple] = []
    for i, node in enumerate(order + [None]):  # None stands for the root's parent
        kind = type(node)
        if kind is Num:
            ns["_c%d" % i] = node.value
            stack.append(("_c%d" % i, False, [], [], []))
            continue
        if kind is Var:
            if node.name not in loads:
                j = len(head)
                loads[node.name] = "_v%d" % j
                ns["_n%d" % j] = node.name
                head.append("_v%d = float(_b[_n%d])" % (j, j))
            local = loads[node.name]
            stack.append((local, node.name == names[-1], [], [], [local]))
            continue
        operands = stack[-2:] if kind is BinOp else stack[-1:]
        del stack[-len(operands) :]
        inner = node is None or any(o[1] for o in operands)
        for value, reads, body, tested, floats in operands:
            if body and inner and not reads:  # a memo site, at most one per node
                key = sorted(set(floats))
                # a site that reads no float is filled once its value replaces None
                hit = " and ".join("_s[%d] is %s" % kv for kv in enumerate(key)) or "_s[0] is not None"
                ns["_M%d" % i] = [(None,)]
                body[:] = (_SITE % dict(
                    slot="_M%d" % i, hit=hit, value=value, at=len(key), body="\n    ".join(body),
                    test=_all_finite(tested + [value]), key="%s," % ", ".join([*key, value]),
                )).split("\n")
                tested.clear()
        if node is None:
            break
        (a, _, body, tested, floats), *rest = operands
        temp = "_t%d" % i
        for _, _, more_body, more_tested, more_floats in rest:
            body += more_body
            tested += more_tested
            floats += more_floats
        if kind is Neg:
            body.append("%s = -%s" % (temp, a))
        elif kind is BinOp:
            b = rest[0][0]
            line = "%s = _pow(%s, %s)" if node.op == "^" else "%s = %s " + node.op + " %s"
            body.append(line % (temp, a, b))
            tested += [a, b] if node.op == "^" else [b] if node.op == "/" else []
        else:
            ns["_k%d" % i] = node.func
            body.append("%s = _D[_k%d](%s)" % (temp, i, a))
            tested += [a] if node.func == "exp" else []
        stack.append((temp, inner, body, tested, floats))
    root, _, body, tested, _ = operands[0]
    body += ["if %s:" % _all_finite(tested + [root]), "    return " + root]
    # on any exception the interpreter runs, and raises it again or the checked error
    source = "def program(_b):\n    try:\n" + "".join("        %s\n" % line for line in head + body)
    exec(source + "    except Exception:\n        pass\n", ns)
    return ns["program"]


def evaluate(
    e: Expr,
    bindings: Mapping[str, float],
    functions: Mapping[str, Callable[[float], float]] | None = None,
) -> float:
    """Evaluate over real arithmetic.

    Division by zero, ln of a non-positive value, sqrt of a negative,
    0 raised to a negative power, and any non-finite intermediate or
    result (also a NaN or infinite binding that a tree such as ``x`` or
    ``-x`` returns untouched) all raise EvalDomainError instead of
    propagating NaN/inf; for overflow and a non-finite result its
    ``overflow`` is true.  ``functions`` can swap builtin
    implementations (e.g. CORDIC-backed sin/cos).

    A tree from ``parse`` is compiled to Python code on its first
    evaluation with ``functions=None`` and the code is kept on the tree,
    so trees evaluated in turn (f and f') each compile once.  A point
    where the code fails, every point of any other tree or of a tree over
    the node cap, and every evaluation with ``functions`` run the checked
    interpreter.
    """
    program = e._program if functions is None else None
    if program is not None:
        value = program(bindings)
        if value is not None:
            return value
    impls = _DEFAULT_IMPLS if functions is None else {**_DEFAULT_IMPLS, **functions}
    try:
        return _interpret(e._order, bindings, impls)
    except EvalDomainError as ee:
        ee.source = e._source
        raise


def as_function(
    e: Expr,
    variables: Sequence[str],
    functions: Mapping[str, Callable[[float], float]] | None = None,
) -> Callable[..., float]:
    """Wrap an Expr as a positional callable over ``variables``.

    It takes exactly one value per variable; another count raises TypeError.
    """
    names = tuple(variables)
    # one form per common arity, its names bound here and a dict display per
    # point; evaluate is looked up per call, so a wrapper set on it sees every point
    if len(names) == 1:
        (a,) = names
        def f(x: float) -> float:
            return evaluate(e, {a: x}, functions)
    elif len(names) == 2:
        a, b = names
        def f(x: float, y: float) -> float:
            return evaluate(e, {a: x, b: y}, functions)
    elif len(names) == 3:
        a, b, c = names
        def f(x: float, y: float, z: float) -> float:
            return evaluate(e, {a: x, b: y, c: z}, functions)
    else:
        def f(*values: float) -> float:
            if len(values) != len(names):
                raise TypeError(f"expected {len(names)} values, got {len(values)}")
            return evaluate(e, dict(zip(names, values)), functions)
    return f


_PREC = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 30}
_NEG_PREC = 25


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
