import math
import random
import re

import pytest

from calcverify import (
    DomainError,
    NumericError,
    central_diff,
    directional_derivative,
    gradient,
    one_sided_diff,
    verify_antiderivative,
    verify_derivative,
)


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
