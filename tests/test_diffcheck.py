import math
import random
import re
from fractions import Fraction

import pytest

from calcverify import (
    DomainError,
    NumericError,
    central_diff,
    convergence_table,
    cordic_sincos,
    directional_derivative,
    expr,
    gradient,
    newton_solve,
    one_sided_diff,
    secant_solve,
    verify_antiderivative,
    verify_derivative,
)
from calcverify.diffcheck import DEFAULT_TOL_ABS


def rational_f(x):
    return (x - 2.0) / (x * x + 4.0)


def rational_fprime(x):
    # quotient rule by hand: (-x^2 + 4x + 4) / (x^2 + 4)^2
    return (-x * x + 4.0 * x + 4.0) / (x * x + 4.0) ** 2


def test_central_diff_examples():
    for h in (0.5, 1e-2, 1e-5):
        assert central_diff(lambda x: x * x, 3.0, h) == pytest.approx(6.0, rel=1e-10)
    assert central_diff(abs, 0.0, 1e-6) == 0.0
    assert central_diff(rational_f, 2.0, 1e-4) == pytest.approx(0.125, abs=1e-9)


def test_central_diff_requires_positive_h():
    with pytest.raises(DomainError):
        central_diff(lambda x: x, 0.0, 0.0)
    with pytest.raises(DomainError):
        central_diff(lambda x: x, 0.0, -1e-3)


def test_one_sided_diff_examples():
    assert one_sided_diff(abs, 0.0, 1e-6) == 1.0
    assert one_sided_diff(abs, 0.0, -1e-6) == -1.0
    # exact whenever a + h rounds exactly, close otherwise
    assert one_sided_diff(lambda x: x, 17.0, 0.25) == 1.0
    assert one_sided_diff(lambda x: x, 17.0, -0.5) == 1.0
    assert one_sided_diff(lambda x: x, 17.0, 1e-3) == pytest.approx(1.0, rel=1e-10)
    step = lambda x: 0.0 if x < 0 else 1.0
    assert one_sided_diff(step, 0.0, -1e-6) == 1e6
    with pytest.raises(DomainError):
        one_sided_diff(abs, 0.0, 0.0)


def test_non_finite_evaluations():
    with pytest.raises(NumericError):
        central_diff(lambda x: float("nan"), 0.0, 1e-4)
    with pytest.raises(NumericError):
        one_sided_diff(lambda x: float("inf"), 0.0, 1e-4)


def test_verify_derivative_known_discrepancy():
    report = verify_derivative(rational_f, rational_fprime, 2.0, h=1e-4)
    assert report.verdict == "pass"
    assert 4e-11 <= report.abs_diff <= 6.4e-10  # known discrepancy for this f, a=2, h=1e-4


def test_verify_derivative_cubic():
    report = verify_derivative(lambda x: x**3, lambda x: 3 * x * x, 1.0, h=1e-5)
    assert report.verdict == "pass"
    assert report.abs_diff <= 1e-9


def test_verify_derivative_detects_wrong_form():
    report = verify_derivative(lambda x: x**3, lambda x: 2 * x * x, 1.0, h=1e-5)
    assert report.verdict == "fail"
    assert report.abs_diff == pytest.approx(1.0, abs=1e-6)


def test_report_arithmetic_is_recomputable():
    report = verify_derivative(math.exp, math.exp, 0.5, h=1e-4, tol_abs=1e-6, tol_rel=1e-6)
    assert report.abs_diff == abs(report.analytic - report.numeric)
    assert report.rel_diff == report.abs_diff / max(abs(report.analytic), 1.0)
    expected = "pass" if (report.abs_diff <= 1e-6 or report.rel_diff <= 1e-6) else "fail"
    assert report.verdict == expected


def test_order_of_accuracy():
    central_coarse = abs(central_diff(math.exp, 0.0, 1e-2) - 1.0)
    central_fine = abs(central_diff(math.exp, 0.0, 1e-3) - 1.0)
    assert 80.0 <= central_coarse / central_fine <= 120.0
    sided_coarse = abs(one_sided_diff(math.exp, 0.0, 1e-2) - 1.0)
    sided_fine = abs(one_sided_diff(math.exp, 0.0, 1e-3) - 1.0)
    assert 8.0 <= sided_coarse / sided_fine <= 12.0


def test_central_diff_exact_on_quadratics():
    rng = random.Random(7021)
    for _ in range(200):
        c0, c1, c2 = (rng.uniform(-3, 3) for _ in range(3))
        a = rng.uniform(-3, 3)
        h = 10 ** rng.uniform(-3, 0)
        q = lambda x: c2 * x * x + c1 * x + c0
        slope = 2 * c2 * a + c1
        assert abs(central_diff(q, a, h) - slope) <= 1e-10 * max(1.0, abs(slope))


def test_verify_antiderivative_examples():
    report = verify_antiderivative(lambda x: 2 * x, lambda x: x * x, 0.0, 3.0, n=5)
    assert report.verdict == "pass"
    assert report.ftc_value == 9.0
    assert report.quad_value == pytest.approx(9.0, abs=1e-12)

    report = verify_antiderivative(lambda x: 1 / x, math.log, 1.0, 2.0, n=10)
    assert report.verdict == "pass"
    assert report.ftc_value == pytest.approx(math.log(2), abs=1e-15)
    assert report.abs_diff <= 1e-10

    wrong = verify_antiderivative(lambda x: 1 / x, lambda x: math.log(x) + x, 1.0, 2.0, n=10)
    assert wrong.verdict == "fail"
    assert wrong.abs_diff == pytest.approx(1.0, abs=1e-9)


def _fn(text):
    return expr.as_function(expr.parse(text, ["x"]), ["x"])


def test_antiderivative_verdict_is_not_decided_by_rounding():
    # |F(b) - F(a)| near 1e300 is far above the absolute tol, so one ulp
    # of difference used to fail an exact antiderivative
    f, F = _fn("1e300*x"), _fn("5e299*x^2")
    rng = random.Random(2000)
    for _ in range(2000):
        a, b = sorted((rng.uniform(-10, 10), rng.uniform(-10, 10)))
        report = verify_antiderivative(f, F, a, b, n=10)
        assert report.verdict == "pass", (a, b, report.abs_diff)


def test_antiderivative_rounding_allowance_is_a_few_ulps():
    report = verify_antiderivative(_fn("3*x^2"), _fn("x^3"), 4288.0, 9966.0, n=10)
    assert report.verdict == "pass" and report.abs_diff > DEFAULT_TOL_ABS
    # a relative error of 1e-12 is thousands of ulps: still a fail
    wrong = verify_antiderivative(_fn("3*x^2"), _fn("x^3*(1+1e-12)"), 4288.0, 9966.0, n=10)
    assert wrong.verdict == "fail"


def test_verify_antiderivative_requires_interval():
    with pytest.raises(DomainError):
        verify_antiderivative(lambda x: x, lambda x: x * x / 2, 2.0, 2.0)


def test_gradient_examples():
    g = gradient(lambda x, y: x + 2 * y, (0.3, -1.2), 1e-6)
    assert g == pytest.approx((1.0, 2.0), abs=1e-8)
    # forward-difference bias: (9 + 6h + h^2 - 9)/h = 6 + h
    g = gradient(lambda x: x * x, (3.0,), 1e-6)
    assert g[0] == pytest.approx(6.0 + 1e-6, abs=1e-8)
    g = gradient(lambda x, y: x * y, (2.0, 5.0), 1e-7)
    assert g == pytest.approx((5.0, 2.0), abs=1e-6)


def test_gradient_uses_d_plus_one_evaluations():
    calls = []

    def f(*args):
        calls.append(args)
        return sum(args)

    gradient(f, (1.0, 2.0, 3.0), 1e-6)
    assert len(calls) == 4


def test_gradient_errors():
    with pytest.raises(DomainError):
        gradient(lambda x: x, (1.0,), 0.0)
    with pytest.raises(DomainError):
        gradient(lambda: 0.0, (), 1e-6)
    with pytest.raises(NumericError) as info:
        gradient(lambda x, y: float("inf") if x > 1 else 0.0, (1.0, 0.0), 1e-6)
    assert "coordinate 0" in str(info.value)
    with pytest.raises(NumericError, match=r"^function returned non-finite value inf at \(0\.0,\)$"):
        gradient(lambda *p: math.inf, (0.0,), 1e-3)


def test_directional_derivative_examples():
    v = directional_derivative(lambda x, y: x + y, (0.0, 0.0), (1.0, 1.0), 1e-6)
    assert v == pytest.approx(math.sqrt(2), abs=1e-6)
    v = directional_derivative(lambda x, y: 4.0, (1.0, 1.0), (3.0, -2.0), 1e-6)
    assert abs(v) <= 1e-12
    v = directional_derivative(lambda x: x * x, (1.0,), (-1.0,), 1e-6)
    assert v == pytest.approx(-2.0, abs=1e-5)


def test_directional_derivative_scale_invariance():
    f = lambda x, y: math.sin(x) * y + x * x
    base = directional_derivative(f, (0.4, 1.3), (2.0, -1.0), 1e-6)
    for c in (2.0, 10.0, 0.125):
        scaled = directional_derivative(f, (0.4, 1.3), (2.0 * c, -1.0 * c), 1e-6)
        assert abs(scaled - base) <= 1e-12


def test_directional_derivative_rejects_zero_direction():
    with pytest.raises(DomainError):
        directional_derivative(lambda x, y: x + y, (0.0, 0.0), (0.0, 0.0), 1e-6)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_verify_derivative_rejects_non_finite_point(bad):
    def f(x):
        raise AssertionError("evaluated")

    with pytest.raises(DomainError, match="point a must be finite"):
        verify_derivative(f, f, bad)


def _step(x):
    # finite everywhere, but its differences overflow
    return 1e308 if x > 0 else -1e308


@pytest.mark.parametrize(
    "call, quantity",
    [
        (lambda: central_diff(lambda x: x, 1.0, 1e308), "central difference is non-finite (nan)"),
        (lambda: central_diff(_step, 0.0, 1.0), "central difference is non-finite (inf)"),
        (lambda: one_sided_diff(_step, -0.5, 1.0), "one-sided difference is non-finite (inf)"),
        (lambda: gradient(lambda x, y: _step(y), (0.0, 0.0), 1.0), "quotient of coordinate 1 is non-finite"),
        (lambda: verify_derivative(lambda x: x, lambda x: 1.0, 1.0, h=1e308), "central difference"),
        (lambda: verify_derivative(lambda x: 1e308 * x, lambda x: -1e308, 1.0), "analytic - numeric"),
        (lambda: verify_antiderivative(math.cos, lambda x: 1e308 * math.sin(x), -1.6, 1.6), "F(b) - F(a)"),
        (
            lambda: verify_antiderivative(lambda x: -1e308, lambda x: 1e308 * x, 0.0, 1.7),
            "F(b) - F(a) - quadrature value is non-finite (inf)",
        ),
    ],
)
def test_non_finite_estimate_or_difference_is_numeric_error(call, quantity):
    # a report never carries a bare inf or nan
    with pytest.raises(NumericError, match=re.escape(quantity)):
        call()


def test_directional_derivative_overflowing_sum_is_numeric_error():
    # every gradient component is finite, but their sum overflows fsum
    with pytest.raises(NumericError, match="directional derivative overflows"):
        directional_derivative(lambda x, y, z: 1.7e308 * max(x, y, z), (0, 0, 0), (1, 1, 1), 1.0)


def test_directional_derivative_whose_partial_sum_overflows():
    # the terms are about 9.8e307 each; fsum overflows on the first two
    f = lambda x, y, z: 1.7e308 * (x + y - z)
    norm = math.hypot(1.0, 1.0, 1.0)
    terms = [g * (1.0 / norm) for g in gradient(f, (0, 0, 0), 1.0)]
    exact = float(sum(map(Fraction, terms)))
    assert directional_derivative(f, (0, 0, 0), (1, 1, 1), 1.0) == exact == pytest.approx(9.8e307, rel=1e-2)


def _never_called(*args):
    raise AssertionError("evaluated")


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda f: central_diff(f, 0.0, math.inf), "step h must be finite, got inf"),
        (lambda f: one_sided_diff(f, 0.0, math.inf), "step h must be finite, got inf"),
        (lambda f: one_sided_diff(f, 0.0, -math.inf), "step h must be finite, got -inf"),
        (lambda f: one_sided_diff(f, 0.0, math.nan), "step h must be finite, got nan"),
        (lambda f: gradient(f, (0.0, 1.0), math.inf), "step h must be finite, got inf"),
        (lambda f: verify_derivative(f, f, 1.0, h=math.inf), "step h must be finite, got inf"),
        (lambda f: verify_derivative(f, f, 1.0, tol_abs=math.inf), "tol_abs must be finite, got inf"),
        (lambda f: verify_derivative(f, f, 1.0, tol_rel=math.inf), "tol_rel must be finite, got inf"),
        (lambda f: verify_antiderivative(f, f, 0.0, 1.0, tol=math.inf), "tol must be finite, got inf"),
        (lambda f: central_diff(f, 0.0, 0.0), "step h must be positive, got 0.0"),
        (lambda f: gradient(f, (0.0,), -1.0), "step h must be positive, got -1.0"),
        (lambda f: verify_derivative(f, f, 1.0, tol_abs=-1.0), "tol_abs must be nonnegative, got -1.0"),
        (lambda f: newton_solve(f, 0.0, 1.0, tol=0.0), "tolerance must be positive, got 0.0"),
        (lambda f: secant_solve(f, 0.0, 1.0, 2.0, tol=0.0), "tolerance must be positive, got 0.0"),
        (lambda f: cordic_sincos(math.nan), "theta must be finite, got nan"),
        (lambda f: convergence_table(f, 0.0, 1.0, [2, 3], math.nan), "reference must be finite, got nan"),
        (
            lambda f: directional_derivative(f, (0.0, 0.0), (1.0, 1.0, 1.0), 1e-6),
            "direction and point dimensions differ",
        ),
    ],
)
def test_bad_step_tolerance_or_direction_rejected_before_evaluating(call, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        call(_never_called)


@pytest.mark.parametrize(
    "call, point",
    [
        (lambda f: central_diff(f, 1e308, 1e-4), "1e+308"),
        (lambda f: central_diff(f, 1.0, 1e-16), "1.0"),  # 1 - 1e-16 moves, 1 + 1e-16 does not
        (lambda f: central_diff(f, -1.0, 1e-16), "-1.0"),  # and the other way round
        (lambda f: one_sided_diff(f, 1e20, 1e-4), "1e+20"),
        (lambda f: one_sided_diff(f, 1e20, -1e-4), "1e+20"),
        (lambda f: gradient(f, (1.0, 1e20), 1e-6), "(1.0, 1e+20)"),
        (lambda f: verify_derivative(f, f, 1e20), "1e+20"),
    ],
)
def test_step_that_does_not_move_the_point_is_numeric_error(call, point):
    # the difference would be 0 whatever f is, so f is never evaluated
    with pytest.raises(NumericError, match=re.escape(f"is too small to move the point {point}")):
        call(_never_called)


@pytest.mark.parametrize("a, b", [(0.0, math.inf), (-1.0, math.inf), (-math.inf, 0.0), (-math.inf, math.inf)])
def test_infinite_antiderivative_bound_rejected_before_evaluating(a, b):
    # F at an infinite bound is not an integral: an input error, as for integrate
    with pytest.raises(DomainError, match="^bounds must be finite$"):
        verify_antiderivative(_never_called, _never_called, a, b)


def test_nan_antiderivative_bound_keeps_its_message():
    with pytest.raises(DomainError, match="^lower bound 0.0 is not below upper bound nan$"):
        verify_antiderivative(_never_called, _never_called, 0.0, math.nan)


# a step from a NaN point leaves every coordinate f ignores unmoved, and one
# from an infinite point moves nothing: neither gives a slope
NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("bad", NON_FINITE)
def test_central_diff_rejects_non_finite_point(bad):
    with pytest.raises(DomainError, match=re.escape(f"point a must be finite, got {bad!r}")):
        central_diff(lambda x: 0.0, bad, 1e-4)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_one_sided_diff_rejects_non_finite_point(bad):
    with pytest.raises(DomainError, match=re.escape(f"point a must be finite, got {bad!r}")):
        one_sided_diff(lambda x: 0.0, bad, 1e-4)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_gradient_rejects_non_finite_point(bad):
    with pytest.raises(DomainError, match=re.escape(f"point must be finite, got ({bad!r},)")):
        gradient(lambda x: 0.0, (bad,), 1e-6)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_directional_derivative_rejects_non_finite_point(bad):
    with pytest.raises(DomainError, match=re.escape(f"point must be finite, got ({bad!r}, 0.0)")):
        directional_derivative(lambda x, y: 1.0, (bad, 0.0), (1.0, 0.0), 1e-6)


# a finite point plus a finite step can overflow: f would then be taken at
# infinity, where sin raises a bare ValueError and 1/x gives a slope of -0.0
BIG = 1.7976931348623157e308


def test_central_diff_rejects_a_step_that_overflows_the_point():
    with pytest.raises(NumericError, match=re.escape(f"step h=1e+300 moves the point {BIG!r} to inf")):
        central_diff(math.sin, BIG, 1e300)


def test_one_sided_diff_rejects_a_step_that_overflows_the_point():
    with pytest.raises(NumericError, match=re.escape(f"step h=1e+300 moves the point {BIG!r} to inf")):
        one_sided_diff(math.sin, BIG, 1e300)
    with pytest.raises(NumericError, match=re.escape(f"step h=-1e+300 moves the point {-BIG!r} to -inf")):
        one_sided_diff(lambda x: 1 / x, -BIG, -1e300)


def test_gradient_rejects_a_step_that_overflows_a_coordinate():
    with pytest.raises(NumericError, match=re.escape(f"moves the point ({BIG!r}, 0.0) to inf")):
        gradient(lambda x, y: math.sin(x), (BIG, 0.0), 1e300)
