"""Recursive-descent parser and evaluator for small math expressions.

Grammar (whitespace insignificant):

    expr   := factor (op factor)*         -- op is + - * /, * / binding tighter;
                                             all group left: 8/4/2 = 1, 1-2-3 = -4
    factor := '-' factor | atom ('^' factor)?  -- ^ groups right, so
                                             2^3^2 = 512 and -x^2 = -(x^2)
    atom   := number | name | name '(' expr ')' | '(' expr ')'
    number := (digits ['.' [digits]] | '.' digits) [('e'|'E') ['+'|'-'] digits]
    digits := one or more ASCII 0-9; the literal must be a finite double

A name followed by '(' must be one of the builtins sin, cos, tan, exp,
ln, sqrt, abs; any other name is a variable and must be declared.
Implicit multiplication is rejected: write 2*x, not 2x.  The parser
and ``to_string`` (in ``_printing``, which no CLI path loads; its name
here: ``calcverify._NAMES``) read one precedence table, ``_PREC``.  Each
'(', call, unary '-' and '^' exponent nests one level; past 100 levels
the parser raises ParseError.  Printing and the checked evaluator use an
explicit stack, so they work at any depth.

``evaluate`` runs the checked interpreter: one stack loop over the
tree's post-order list, testing every operation result.  A callable
from ``as_function`` also carries the tree compiled, in the manner of
SymPy's ``lambdify``, to a box integral's whole loop nest: one
statement per node, so depth does not matter either, each in the loop
of the last axis it reads, or, if it reads one inner axis alone, in a
table of that axis's nodes made before the loops.  Over x, y, z,
``sin(z)*exp(x)*ln(y)`` computes ``exp(x)`` once per x, ``ln(y)`` once
per y, ``sin(z)`` once per z, and the two products once per point.
The generator lives in ``_nest``, imported when a nest is first
generated.  The callable's ``_box_sum`` alone picks a grid's route,
and runs a nest only on a grid of ``_NEST_MIN_POINTS`` points or
more; smaller grids run the interpreter point by point.  On such a
grid over two axes or more, a tree whose terms are products of factors
reading one variable each runs no nest: ``_separable`` multiplies
one-axis sums, within (q + 3d + 2) 2^-53 times the weighted sum of
|term| of the point route's value (q nodes, d axes) while no product or
sum is subnormal, or hands the grid back to the nest where a factor
fails or a product might overflow.
The nest tests finiteness only where a non-finite value can vanish;
when it raises or a test fails it hands back the terms it finished,
and the integral reruns the outer node it stopped in point by point,
through the interpreter, for the error.  While ``evaluate`` is wrapped
no nest runs, and the axis sums' value is returned after a call at
every point, so the wrapper sees every point and no bit moves; on such
a grid its calls and exceptions count, but not its return values.  Custom
``functions``, trees built by hand or unpickled, and trees over
``_MAX_COMPILED_NODES`` nodes get no nest, so values and errors are
exactly the interpreter's.  The cap bounds memory: generating a nest
peaks at ~8 times the tree's own, though the nest outruns the interpreter.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from functools import cached_property

from . import _elsewhere
from ._record import Record
from .errors import CalcVerifyError, DomainError

# the parser recurses a few frames per level; this keeps it far from
# Python's default recursion limit of 1000
_MAX_NESTING = 100
# a nest runs faster than the interpreter at every tree size, but generating
# it peaks at ~8x the tree's own memory, so a tree past this size is interpreted
_MAX_COMPILED_NODES = 1000
# The fewest grid points (n^d) for which as_function's _box_sum runs the
# loop nest or the axis sums; below it, importing the generator and
# generating the nest cost more than they save.  Measured as the first
# integral in a fresh `python -S` process from bytecode (CPython 3.11, 2-term
# integrands): the nest costs ~0.44 ms there; it never wins in 1-D (+0.16 ms
# at n = 64), and 2-D grids break even near 118 points, 3-D near 106.  From
# source, which compiles the generator module too, 2-D breaks even near 330
# points.  The same grids of a separable tree sum each axis once instead
# (_separable), and any other grid keeps the per-point loops' bits.
_NEST_MIN_POINTS = 110
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
BUILTIN_FUNCTIONS = tuple(_DEFAULT_IMPLS)


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
    def _nests(self) -> dict | None:
        # as_function's loop nests by variable order; only a tree parse returned, under the node cap, gets code
        return {} if self._names and len(self._order) <= _MAX_COMPILED_NODES else None

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


# binding powers for parsing and printing
_PREC = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 30}


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

    def _expr(self, floor: int = 0) -> Expr:
        # an operator's right operand takes only tighter ones, so equal ones group left
        left = self._factor()
        op = self.tokens[self.pos]  # never '^': _factor takes it
        while (prec := _PREC.get(op.text, 0)) > floor:
            self.pos += 1
            left = BinOp(op.text, left, self._expr(prec), op.offset)
            op = self.tokens[self.pos]
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
            e = self._atom()
            if self._at_op("^"):  # the exponent is a factor, so ^ groups right and -x^2 is -(x^2)
                op = self._advance()
                e = BinOp("^", e, self._factor(), op.offset)
        self.depth -= 1
        return e

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


def evaluate(
    e: Expr,
    bindings: Mapping[str, float],
    functions: Mapping[str, Callable[[float], float]] | None = None,
) -> float:
    """Evaluate over real arithmetic with the checked interpreter.

    Division by zero, ln of a non-positive value, sqrt of a negative,
    0 raised to a negative power, and any non-finite intermediate or
    result (also a NaN or infinite binding that a tree such as ``x`` or
    ``-x`` returns untouched) all raise EvalDomainError instead of
    propagating NaN/inf; for overflow and a non-finite result its
    ``overflow`` is true.  ``functions`` can swap builtin
    implementations (e.g. CORDIC-backed sin/cos).
    """
    impls = _DEFAULT_IMPLS if functions is None else {**_DEFAULT_IMPLS, **functions}
    try:
        return _interpret(e._order, bindings, impls)
    except EvalDomainError as ee:
        ee.source = e._source
        raise


_EVALUATE = evaluate


def as_function(
    e: Expr,
    variables: Sequence[str],
    functions: Mapping[str, Callable[[float], float]] | None = None,
) -> Callable[..., float]:
    """Wrap an Expr as a positional callable over ``variables``.

    It takes exactly one value per variable; another count raises
    TypeError.  Under the default builtins, a callable over a tree that
    ``parse`` returned (under the node cap) also carries ``_box_sum(axes,
    rescaled)``, which alone picks how apply_rule_box sums its grid.  It
    returns the integral as a product of one-axis sums, or else the terms
    the tree's loop nest finished, or none, and the point loops run the
    rest.  A nest is generated once per variable order (the first of all
    imports the generator module) and kept on the tree.
    """
    names = tuple(variables)

    def f(*values: float) -> float:
        if len(values) != len(names):
            raise TypeError(f"expected {len(names)} values, got {len(values)}")
        return evaluate(e, dict(zip(names, values)), functions)

    if functions is None and e._nests is not None and set(e._names) <= set(names):

        def box_sum(axes: list, rescaled: bool) -> float | list[float]:
            # the point loops run a small grid, and raise f's TypeError on a box of another dimension
            if len(axes) != len(names) or len(axes[0]) ** len(axes) < _NEST_MIN_POINTS:
                return []
            # evaluate is looked up per call; under a wrapper set on it no nest
            # runs and the axis sums call f at every point, so it sees each one
            traced = evaluate is not _EVALUATE
            if len(axes) > 1 and not rescaled:
                from . import _separable  # loads on the first grid's integral

                value = _separable.integral(e, names, axes, f if traced else None)
                if value is not None:
                    return value
            if traced:
                return []
            if names not in e._nests:
                from . import _nest  # the generator loads on first use

                e._nests[names] = _nest._generate(e._order, names)
            return e._nests[names](axes)

        f._box_sum = box_sum
    return f


def __getattr__(name: str):
    return _elsewhere(__name__, name)
