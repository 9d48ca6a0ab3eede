"""Fuzz the library's contract: each public numeric function, called
directly with extreme floats and ill-behaved callables, returns finite
numbers (or a record or tuple of them) or raises a CalcVerifyError.  A
TypeError is allowed only for a wrong number of arguments.  The CLI
contract is fuzzed in test_fuzz.py."""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

import calcverify as cv
from calcverify import CalcVerifyError
from calcverify._record import Record
from calcverify.expr import BUILTIN_FUNCTIONS

BIG = 1.7976931348623157e308
FLOATS = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e-200, 1.0, -1.0, 0.5, 2.0, 1e300, -1e300, BIG, -BIG,
     math.nan, math.inf, -math.inf]
)


# each takes any number of values, so it serves as an integrand in 1 to 3 axes
def square(x, *rest):
    return x * x


def constant(*values):
    return 1.0


def nan_valued(*values):
    return math.nan


def steep(x, *rest):
    return 1.7e308 * x


def clipped_exp(x, *rest):
    return math.exp(min(x, 700.0))


CALLABLES = st.sampled_from([square, constant, nan_valued, steep, clipped_exp])
ORDERS = st.sampled_from([1, 2, 5])
POINTS = st.lists(FLOATS, min_size=1, max_size=3).map(tuple)
# every operator and builtin, and the two trees that perform no operation
TEXTS = st.sampled_from(
    ["x", "-x", "x + y", "x - y", "x*y", "x/y", "x^y", "1/(x*x)", *(f"{f}(x)*y" for f in BUILTIN_FUNCTIONS)]
)
SWAPS = st.none() | st.builds(lambda name, f: {name: f}, st.sampled_from(BUILTIN_FUNCTIONS), CALLABLES)


def box(draw):
    lo = draw(POINTS)
    return cv.Box(lo, draw(st.lists(FLOATS, min_size=len(lo), max_size=len(lo))))


CALLS = {
    "central_diff": lambda d: cv.central_diff(d(CALLABLES), d(FLOATS), d(FLOATS)),
    "one_sided_diff": lambda d: cv.one_sided_diff(d(CALLABLES), d(FLOATS), d(FLOATS)),
    "gradient": lambda d: cv.gradient(d(CALLABLES), d(POINTS), d(FLOATS)),
    "directional_derivative": lambda d: cv.directional_derivative(
        d(CALLABLES), d(POINTS), d(POINTS), d(FLOATS)
    ),
    "verify_derivative": lambda d: cv.verify_derivative(
        d(CALLABLES), d(CALLABLES), d(FLOATS), d(FLOATS), d(FLOATS), d(FLOATS)
    ),
    "verify_antiderivative": lambda d: cv.verify_antiderivative(
        d(CALLABLES), d(CALLABLES), d(FLOATS), d(FLOATS), d(ORDERS), d(FLOATS)
    ),
    "apply_rule": lambda d: cv.apply_rule(cv.gauss_rule(d(ORDERS)), d(CALLABLES), d(FLOATS), d(FLOATS)),
    "integrate_1d": lambda d: cv.integrate_1d(d(CALLABLES), d(FLOATS), d(FLOATS), d(ORDERS)),
    "apply_rule_box": lambda d: cv.apply_rule_box(cv.gauss_rule(d(ORDERS)), d(CALLABLES), box(d)),
    "integrate_box": lambda d: cv.integrate_box(d(CALLABLES), box(d), d(ORDERS)),
    "convergence_table": lambda d: cv.convergence_table(
        d(CALLABLES), d(FLOATS), d(FLOATS), d(st.sampled_from([[1], [1, 3], [2, 5]])), d(FLOATS)
    ),
    "gauss_weights_linear_system": lambda d: cv.gauss_weights_linear_system(d(POINTS)),
    "newton_solve": lambda d: cv.newton_solve(
        d(CALLABLES), d(FLOATS), d(FLOATS), d(st.none() | CALLABLES), d(FLOATS), max_iters=5
    ),
    "secant_solve": lambda d: cv.secant_solve(
        d(CALLABLES), d(FLOATS), d(FLOATS), d(FLOATS), d(FLOATS), max_iters=5
    ),
    "cordic_sincos": lambda d: cv.cordic_sincos(d(FLOATS)),
}


def finite(value) -> bool:
    if isinstance(value, (str, bool)):  # a verdict or a converged flag
        return True
    if isinstance(value, (int, float)):
        return math.isfinite(value)
    if isinstance(value, Record):
        value = value._values()
    return all(map(finite, value))


@pytest.mark.parametrize("name", sorted(CALLS))
@settings(max_examples=60, derandomize=True, deadline=None)
@given(data=st.data())
def test_a_public_function_returns_finite_values_or_raises_a_typed_error(name, data):
    try:
        value = CALLS[name](data.draw)
    except CalcVerifyError:
        return
    assert finite(value), value


@settings(max_examples=150, derandomize=True, deadline=None)
@given(text=TEXTS, x=FLOATS, y=FLOATS, functions=SWAPS, count=st.sampled_from([1, 2, 3]))
def test_evaluation_returns_finite_values_or_raises_a_typed_error(text, x, y, functions, count):
    tree = cv.parse(text, ["x", "y"])
    calls = [
        lambda: cv.evaluate(tree, {"x": x, "y": y}, functions),
        lambda: cv.as_function(tree, ["x", "y"], functions)(*(x, y, 1.0)[:count]),
    ]
    for call in calls:
        try:
            value = call()
        except CalcVerifyError:
            continue
        except TypeError:
            assert call is calls[1] and count != 2
            continue
        assert finite(value), value
