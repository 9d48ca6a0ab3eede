"""Seeded operations for the CLI benchmark, each with an independent answer.

An operation is one ``calcverify`` command line plus what a correct run
prints, worked out here with ``math`` (and ``numpy.polynomial.legendre``
for ``nodes``), never with calcverify itself.

Operations come in rounds.  Every round of a workload holds the same
classes of operation (subcommand, size) in a seeded order with seeded
numbers, and the run loop stops only at a round boundary, so every run
measures the same mix whatever its seed.

Nothing drawn here has an exit code that a planned robustness fix would
change: no argv element starts with '-' unless it is an option name, no
integrand can overflow or produce NaN, nesting stays shallow, and no
tolerance or iteration count is passed except positive ``--n`` and
``--iters``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple, Sequence

BUILTINS = ("sin", "cos", "tan", "exp", "ln", "sqrt", "abs")

# Plain output prints 10 significant digits, --json output 17.
PLAIN_REL = 2e-9
JSON_REL = 1e-10
# numpy's leggauss agrees with correctly rounded rules to ~5e-15 for n <= 64.
NODES_ABS = 1e-13
SOLVE_TOL = 1e-10  # the CLI's default solve --tol


class Near(NamedTuple):
    """A printed number must lie within ``tol`` of ``ref``."""

    ref: float
    tol: float


class AllNear(NamedTuple):
    """A printed list must match ``refs`` element by element within ``tol``."""

    refs: tuple[float, ...]
    tol: float


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the answer it must give.

    ``fields`` maps output keys to an exact value, a ``Near`` or an
    ``AllNear``; ``caret`` is ``(source, offset)`` for a parse error.
    ``points`` is the number of quadrature nodes an integrate evaluates.
    """

    kind: str
    argv: tuple[str, ...]
    exit: int = 0
    fields: dict = field(default_factory=dict)
    caret: tuple[str, int] | None = None
    points: int = 0

    @property
    def as_json(self) -> bool:
        return "--json" in self.argv


def num(x: float, digits: int = 4) -> str:
    """Fixed-point text for a non-negative number (never an exponent)."""
    if x < 0:
        raise ValueError(f"argv numbers must not start with '-': {x!r}")
    return f"{x:.{digits}f}"


def rounded(x: float, digits: int = 4) -> float:
    return float(f"{x:.{digits}f}")


def _tol(ref: float, as_json: bool, floor: float = 0.0) -> float:
    return (JSON_REL if as_json else PLAIN_REL) * abs(ref) + floor


# --- one-variable factors g(a*v + b) with closed-form integrals -------------


class Family(NamedTuple):
    u_range: tuple[float, float]  # arguments u = a*v + b stay inside this
    antideriv: Callable[[float], float]  # F with F'(u) = g(u)
    deriv: Callable[[float], float]  # g'(u)


FAMILIES: dict[str, Family] = {
    "sin": Family((0.2, 2.9), lambda u: -math.cos(u), math.cos),
    "cos": Family((-1.3, 1.3), math.sin, lambda u: -math.sin(u)),
    "tan": Family((0.1, 1.1), lambda u: -math.log(math.cos(u)), lambda u: 1 / math.cos(u) ** 2),
    "exp": Family((-1.0, 2.0), math.exp, math.exp),
    "ln": Family((1.5, 4.5), lambda u: u * math.log(u) - u, lambda u: 1 / u),
    "sqrt": Family((1.5, 4.5), lambda u: 2 / 3 * u**1.5, lambda u: 0.5 / math.sqrt(u)),
    # the argument stays negative, so abs really folds it
    "abs": Family((-4.0, -0.5), lambda u: -u * u / 2, lambda u: -1.0),
}


@dataclass(frozen=True)
class Factor:
    """``func(a*var + b)``, or the polynomial ``(var^2 + b)`` when func is ''."""

    func: str
    var: str
    a: float
    b: float

    @property
    def inner(self) -> str:
        sign = "+" if self.b >= 0 else "-"
        return f"{num(self.a)}*{self.var} {sign} {num(abs(self.b))}"

    @property
    def text(self) -> str:
        if not self.func:
            return f"({self.var}^2 + {num(self.b)})"
        return f"{self.func}({self.inner})"

    def derivative(self, v: float) -> float:
        if not self.func:
            return 2 * v
        return self.a * FAMILIES[self.func].deriv(self.a * v + self.b)

    def integral(self, lo: float, hi: float) -> float:
        if not self.func:
            return (hi**3 - lo**3) / 3 + self.b * (hi - lo)
        F = FAMILIES[self.func].antideriv
        return (F(self.a * hi + self.b) - F(self.a * lo + self.b)) / self.a


def draw_factor(rng: random.Random, func: str, var: str, lo: float, hi: float, max_span: float = 2.0) -> Factor:
    """A factor whose argument sweeps part of the family's safe range on [lo, hi]."""
    if not func:
        return Factor("", var, 1.0, rounded(rng.uniform(0.1, 2.0)))
    u_lo, u_hi = FAMILIES[func].u_range
    u_lo, u_hi = u_lo + 0.01, u_hi - 0.01  # room for rounding a and b
    span = rng.uniform(0.3, min(max_span, u_hi - u_lo))
    u0 = rng.uniform(u_lo, u_hi - span)
    a = rounded(span / (hi - lo))
    b = rounded(u0 - a * lo)
    return Factor(func, var, a, b)


def draw_interval(rng: random.Random) -> tuple[float, float]:
    lo = rounded(rng.uniform(0.0, 1.0))
    return lo, rounded(lo + rng.uniform(0.5, 2.0))


class FamilyCycle:
    """Hands out every factor family in turn, reshuffled after each pass.

    '' names the polynomial factor (v^2 + b)."""

    def __init__(self, rng: random.Random, names: Sequence[str]):
        self.rng = rng
        self.names = list(names)
        self.queue: list[str] = []

    def next(self) -> str:
        if not self.queue:
            self.queue = self.names[:]
            self.rng.shuffle(self.queue)
        return self.queue.pop()


# --- integrate ---------------------------------------------------------------


def integrate_op(
    terms: Sequence[tuple[float, Sequence[Factor]]],
    axes: Sequence[tuple[str, float, float]],
    n: int,
    as_json: bool,
) -> Op:
    """Integral of a sum of ``coef * product(factors)`` over a box."""
    texts, parts = [], []
    for coef, factors in terms:
        texts.append("*".join([num(coef)] + [f.text for f in factors]))
        value = coef
        used = {f.var for f in factors}
        for f in factors:
            _, lo, hi = next(ax for ax in axes if ax[0] == f.var)
            value *= f.integral(lo, hi)
        for var, lo, hi in axes:
            if var not in used:
                value *= hi - lo
        parts.append(value)
    expression = " + ".join(texts)
    ref = math.fsum(parts)
    argv = ["integrate", expression]
    for var, lo, hi in axes:
        argv += [var, num(lo), num(hi)]
    argv += ["--n", str(n)] + (["--json"] if as_json else [])
    fields = {"value": Near(ref, _tol(ref, as_json))}
    if as_json:
        fields.update(n=n, dims=len(axes))
    return Op("integrate", tuple(argv), fields=fields, points=n ** len(axes))


def polynomial_op(rng: random.Random, n: int, as_json: bool) -> Op:
    """A positive polynomial of degree <= 2n - 1, which an n-point rule integrates exactly."""
    degree = rng.randint(0, min(2 * n - 1, 5))
    coefs = [rounded(rng.uniform(0.1, 3.0)) for _ in range(degree + 1)]
    lo, hi = draw_interval(rng)
    terms = [num(coefs[0])] + [
        f"{num(c)}*x" + (f"^{k}" if k > 1 else "") for k, c in enumerate(coefs) if k > 0
    ]
    ref = math.fsum(c * (hi ** (k + 1) - lo ** (k + 1)) / (k + 1) for k, c in enumerate(coefs))
    argv = ["integrate", " + ".join(terms), "x", num(lo), num(hi), "--n", str(n)]
    fields = {"value": Near(ref, _tol(ref, as_json))}
    if as_json:
        argv.append("--json")
        fields.update(n=n, dims=1)
    return Op("integrate", tuple(argv), fields=fields, points=n)


def smooth_1d_op(rng: random.Random, families: FamilyCycle, n: int, as_json: bool) -> Op:
    lo, hi = draw_interval(rng)
    terms = [
        (rounded(rng.uniform(0.5, 3.0)), [draw_factor(rng, families.next(), "x", lo, hi)])
        for _ in range(rng.randint(1, 2))
    ]
    return integrate_op(terms, [("x", lo, hi)], n, as_json)


def grid_op(rng: random.Random, families: FamilyCycle, dims: int, n: int, shape: Sequence[int]) -> Op:
    """Separable integrand over ``dims`` axes: one term per entry of ``shape``,
    each the product of that many one-variable factors."""
    axes = [(var, *draw_interval(rng)) for var in ("x", "y", "z")[:dims]]
    terms = []
    for width in shape:
        chosen = rng.sample(axes, width)
        factors = [draw_factor(rng, families.next(), var, lo, hi) for var, lo, hi in chosen]
        terms.append((rounded(rng.uniform(0.5, 3.0)), factors))
    return integrate_op(terms, axes, n, rng.random() < 0.5)


# --- the other subcommands ---------------------------------------------------

# Derivative texts that never start with '-'.
def _derivative_text(f: Factor) -> str:
    a, u = num(f.a), f.inner
    return {
        "sin": f"{a}*cos({u})",
        "cos": f"0 - {a}*sin({u})",
        "tan": f"{a}/cos({u})^2",
        "exp": f"{a}*exp({u})",
        "ln": f"{a}/({u})",
        "sqrt": f"{a}/(2*sqrt({u}))",
    }[f.func]


def _antiderivative_text(f: Factor) -> str:
    a, u = num(f.a), f.inner
    return {
        "sin": f"0 - cos({u})/{a}",
        "cos": f"sin({u})/{a}",
        "exp": f"exp({u})/{a}",
        "ln": f"(({u})*ln({u}) - ({u}))/{a}",
        "sqrt": f"2*({u})^1.5/(3*{a})",
    }[f.func]


def _small_factor(rng: random.Random, funcs: Sequence[str], lo: float, hi: float) -> Factor:
    # |f'''| stays below ~20 on these ranges, so the central difference
    # with h = 1e-4 is off by < 4e-8, far inside the 1e-6 tolerance.
    func = rng.choice(funcs)
    u_lo, u_hi = {"tan": (0.1, 0.8), "exp": (-1.0, 1.0)}.get(func, FAMILIES[func].u_range)
    span = min(rng.uniform(0.3, 1.2), u_hi - u_lo - 0.02, 1.2 * (hi - lo))
    u0 = rng.uniform(u_lo + 0.01, u_hi - 0.01 - span)
    a = rounded(span / (hi - lo))
    return Factor(func, "x", a, rounded(u0 - a * lo))


def diffcheck_op(rng: random.Random, wrong: bool = False) -> Op:
    lo, hi = draw_interval(rng)
    f = _small_factor(rng, ("sin", "cos", "tan", "exp", "ln", "sqrt"), lo, hi)
    point = rounded(rng.uniform(lo, hi))
    true = f.derivative(point)
    derivative = _derivative_text(f)
    analytic = true
    if wrong:  # off by 0.05..0.5: a verdict of fail by a factor >= 1e4
        delta = rounded(rng.uniform(0.05, 0.5))
        derivative += f" + {num(delta)}"
        analytic += delta
    as_json = rng.random() < 0.5
    argv = ["diffcheck", f.text, derivative, num(point)] + (["--json"] if as_json else [])
    fields = {
        "analytic": Near(analytic, _tol(analytic, as_json, 1e-12)),
        "numeric": Near(true, 1e-7),
        "verdict": "fail" if wrong else "pass",
    }
    return Op("diffcheck", tuple(argv), exit=1 if wrong else 0, fields=fields)


def antideriv_op(rng: random.Random) -> Op:
    lo, hi = draw_interval(rng)
    hi = rounded(min(hi, lo + 1.0))
    f = _small_factor(rng, ("sin", "cos", "exp", "ln", "sqrt"), lo, hi)
    n = rng.randint(8, 12)
    ref = f.integral(lo, hi)
    as_json = rng.random() < 0.5
    argv = ["antideriv", f.text, _antiderivative_text(f), num(lo), num(hi), "--n", str(n)]
    argv += ["--json"] if as_json else []
    tol = _tol(ref, as_json, 1e-12)
    fields = {"ftc_value": Near(ref, tol), "quad_value": Near(ref, tol), "verdict": "pass"}
    return Op("antideriv", tuple(argv), fields=fields)


class _Equation(NamedTuple):
    text: str
    fprime: str
    value: Callable[[float, float], float]  # f(x; p)
    slope: Callable[[float, float], float]  # f'(x; p)


# f(x) = c with parameter p > 0; every f is increasing on x > 0.
EQUATIONS = (
    _Equation("x^3 + {p}*x", "3*x^2 + {p}", lambda x, p: x**3 + p * x, lambda x, p: 3 * x * x + p),
    _Equation("exp({p}*x)", "{p}*exp({p}*x)", lambda x, p: math.exp(p * x), lambda x, p: p * math.exp(p * x)),
    _Equation("ln({p}*x + 2)", "{p}/({p}*x + 2)", lambda x, p: math.log(p * x + 2), lambda x, p: p / (p * x + 2)),
    _Equation("sqrt({p}*x + 1)", "{p}/(2*sqrt({p}*x + 1))", lambda x, p: math.sqrt(p * x + 1), lambda x, p: p / (2 * math.sqrt(p * x + 1))),
    _Equation("tan(x) + {p}*x", "1/cos(x)^2 + {p}", lambda x, p: math.tan(x) + p * x, lambda x, p: 1 / math.cos(x) ** 2 + p),
)


def _root(eq: _Equation, p: float, c: float) -> float:
    # Bisection on the bracket [0, 1.2]: f is increasing, so this is the
    # unique root, found to the last bit without the code under test.
    lo, hi = 0.0, 1.2
    while True:
        mid = (lo + hi) / 2
        if mid in (lo, hi):
            return mid
        if eq.value(mid, p) < c:
            lo = mid
        else:
            hi = mid


def solve_op(rng: random.Random, method: str) -> Op:
    eq = rng.choice(EQUATIONS)
    p = rounded(rng.uniform(0.5, 2.0))
    c = rounded(eq.value(rng.uniform(0.3, 1.0), p))
    root = _root(eq, p, c)
    ps = num(p)
    argv = ["solve", eq.text.format(p=ps), "--c", num(c), "--method", method]
    x0 = rounded(root * rng.uniform(0.85, 1.15))
    argv += ["--x0", num(x0)]
    if method == "secant":
        argv += ["--x1", num(rounded(x0 + rng.uniform(0.01, 0.1)))]
    elif rng.random() < 0.5:
        argv += ["--fprime", eq.fprime.format(p=ps)]
    as_json = rng.random() < 0.5
    argv += ["--json"] if as_json else []
    # |f(x) - c| <= 1e-10 puts x within 1e-10 / f'(root) of the root
    fields = {
        "root": Near(root, _tol(root, as_json) + 2 * SOLVE_TOL / eq.slope(root, p)),
        "residual": Near(0.0, SOLVE_TOL * (1 + PLAIN_REL)),
        "converged": True,
    }
    return Op("solve", tuple(argv), fields=fields)


def cordic_op(rng: random.Random) -> Op:
    theta = rounded(rng.uniform(0.0, 6.3))
    iters = rng.randint(20, 40)
    as_json = rng.random() < 0.5
    argv = ["cordic", num(theta), "--iters", str(iters)] + (["--json"] if as_json else [])
    bound = 2.0 ** (2 - iters)
    s, c = math.sin(theta), math.cos(theta)
    fields = {
        "sin": Near(s, bound + _tol(s, as_json)),
        "cos": Near(c, bound + _tol(c, as_json)),
        "ref_sin": Near(s, _tol(s, as_json)),
        "ref_cos": Near(c, _tol(c, as_json)),
        "iters": iters,
    }
    return Op("cordic", tuple(argv), fields=fields)


_LEGGAUSS: dict[int, tuple[tuple[float, ...], tuple[float, ...]]] = {}


def leggauss(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    if n not in _LEGGAUSS:
        from numpy.polynomial.legendre import leggauss as np_leggauss

        x, w = np_leggauss(n)
        _LEGGAUSS[n] = (tuple(map(float, x)), tuple(map(float, w)))
    return _LEGGAUSS[n]


def nodes_op(n: int, as_json: bool) -> Op:
    x, w = leggauss(n)
    argv = ("nodes", str(n)) + (("--json",) if as_json else ())
    fields = {"n": n, "nodes": AllNear(x, NODES_ABS), "weights": AllNear(w, NODES_ABS)}
    return Op("nodes", argv, fields=fields)


def parse_error_op(rng: random.Random) -> Op:
    """A bad expression whose caret position is known by construction."""
    lo, hi = draw_interval(rng)
    good = draw_factor(rng, rng.choice(BUILTINS), "x", lo, hi)
    kind = rng.randrange(4)
    if kind == 0:  # unexpected character
        source = f"{good.text} $ 2"
        offset = len(good.text) + 1
    elif kind == 1:  # unknown function
        source = f"2*sinh({good.inner})"
        offset = 2
    elif kind == 2:  # undeclared variable
        source = f"{good.text} + y"
        offset = len(good.text) + 3
    else:  # implicit multiplication
        source = f"2x + {good.text}"
        offset = 1
    command = rng.choice(("integrate", "diffcheck", "solve"))
    if command == "integrate":
        argv = ["integrate", source, "x", num(lo), num(hi)]
    elif command == "diffcheck":
        argv = ["diffcheck", source, "1", num(lo)]
    else:
        argv = ["solve", source, "--x0", num(lo)]
    return Op("parse_error", tuple(argv), exit=2, caret=(source, offset))


# --- workloads ---------------------------------------------------------------


def _cli_light_round(rng: random.Random, families: FamilyCycle) -> list[Op]:
    ops = []
    for lo, hi in ((12, 20), (21, 30), (31, 40)):
        n = rng.randint(lo, hi)
        if rng.random() < 0.3:
            ops.append(polynomial_op(rng, n, rng.random() < 0.5))
        else:
            ops.append(smooth_1d_op(rng, families, n, rng.random() < 0.5))
    ops += [
        diffcheck_op(rng),
        antideriv_op(rng),
        solve_op(rng, "newton"),
        solve_op(rng, "secant"),
        cordic_op(rng),
        nodes_op(rng.randint(1, 12), rng.random() < 0.5),
        # the bad input: about 10% of the round
        parse_error_op(rng) if rng.random() < 0.5 else diffcheck_op(rng, wrong=True),
    ]
    rng.shuffle(ops)
    return ops


# One grid_heavy round: (axes, n, term shape) per operation.  Shapes are
# fixed per slot so that a slot costs about the same in every round.  Five
# of the seven slots are 3-axis n = 32 grids, where evaluation and
# summation are most of the call, so both the median and the tail
# percentile (ten samples above it) fall well inside their cluster.
GRID_SLOTS = (
    (2, 16, (2, 1)),
    (2, 64, (1, 1)),
    (3, 32, (3,)),
    (3, 32, (2, 1)),
    (3, 32, (1, 1, 1)),
    (3, 32, (3,)),
    (3, 32, (2, 1)),
)


def _grid_heavy_round(rng: random.Random, families: FamilyCycle) -> list[Op]:
    ops = [grid_op(rng, families, dims, n, shape) for dims, n, shape in GRID_SLOTS]
    rng.shuffle(ops)
    return ops


# rules_cold draws n from each band once per round, for nodes and for
# integrate alike: three draws in four are n >= 32.
RULES_COLD_BANDS = ((1, 31), (32, 43), (44, 54), (55, 64))


def _rules_cold_round(rng: random.Random, families: FamilyCycle) -> list[Op]:
    ops = []
    for lo, hi in RULES_COLD_BANDS:
        ops.append(nodes_op(rng.randint(lo, hi), rng.random() < 0.5))
        n = rng.randint(lo, hi)
        if n >= 16 and rng.random() < 0.5:
            ops.append(smooth_1d_op(rng, families, n, rng.random() < 0.5))
        else:
            ops.append(polynomial_op(rng, n, rng.random() < 0.5))
    rng.shuffle(ops)
    return ops


# Round maker and the factor families its integrands draw from.  The
# grid integrands use builtins only, so every slot keeps its node count.
ROUNDS = {
    "cli_light": (_cli_light_round, BUILTINS + ("",)),
    "grid_heavy": (_grid_heavy_round, BUILTINS),
    "rules_cold": (_rules_cold_round, BUILTINS + ("",)),
}

# Whether the run starts from a cache holding every rule (n = 1..64).
WARM_CACHE = {"cli_light": True, "grid_heavy": True, "rules_cold": False}


def generate(workload: str, seed: int) -> Iterator[list[Op]]:
    """The rounds of a workload, drawn as they are taken, without end.

    The same seed gives the same ops.
    """
    make, names = ROUNDS[workload]
    rng = random.Random(f"{workload}:{seed}")
    families = FamilyCycle(rng, names)
    while True:
        yield make(rng, families)
