import math

import pytest

from calcverify import (
    DomainError,
    NumericError,
    as_function,
    newton_solve,
    parse,
    secant_solve,
)


def test_newton_square_root_of_four():
    for fprime in (None, lambda x: 2 * x):
        result = newton_solve(lambda x: x * x, 4.0, 3.0, fprime=fprime)
        assert result.converged
        assert result.root == pytest.approx(2.0, abs=1e-10)
        assert result.iterations <= 6


def test_newton_exact_on_affine():
    result = newton_solve(lambda x: x, 0.0, 123.4, fprime=lambda x: 1.0)
    assert result.converged
    assert result.root == 0.0
    assert result.iterations == 1


def test_newton_no_real_root_does_not_converge():
    result = newton_solve(lambda x: x * x + 1.0, 0.0, 1.0, max_iters=50)
    assert not result.converged
    assert result.iterations == 50


def test_newton_flat_derivative_is_an_error():
    # with the analytic derivative the first step lands exactly on x = 0,
    # where f' vanishes
    with pytest.raises(NumericError):
        newton_solve(lambda x: x * x + 1.0, 0.0, 1.0, fprime=lambda x: 2 * x, max_iters=50)
    with pytest.raises(NumericError):
        newton_solve(lambda x: 5.0, 0.0, 1.0, fprime=lambda x: 0.0)


def test_newton_iterate_that_overflows_is_an_error():
    # the step -f/f' = -1e313 is not finite, though f and f' are
    with pytest.raises(NumericError, match="^Newton iterate became non-finite$"):
        newton_solve(lambda x: 1e300 * x, 0.0, 1.0, fprime=lambda x: 1e-13)


def test_newton_starts_at_root():
    result = newton_solve(lambda x: x * x, 4.0, 2.0)
    assert result.converged and result.iterations == 0


def test_newton_validation():
    with pytest.raises(DomainError):
        newton_solve(lambda x: x, 0.0, 1.0, tol=0.0)
    with pytest.raises(NumericError):
        newton_solve(lambda x: float("nan"), 0.0, 1.0)


def test_secant_sqrt2():
    result = secant_solve(lambda x: x * x - 2.0, 0.0, 1.0, 2.0)
    assert result.converged
    assert result.root == pytest.approx(math.sqrt(2), abs=1e-10)


def test_secant_affine():
    result = secant_solve(lambda x: x, 5.0, 0.0, 1.0)
    assert result.converged
    assert result.root == 5.0


def test_secant_on_parsed_cosine():
    f = as_function(parse("cos(x)", ["x"]), ["x"])
    result = secant_solve(f, 0.0, 1.0, 2.0)
    assert result.converged
    assert result.root == pytest.approx(math.pi / 2, abs=1e-8)


def test_secant_validation():
    with pytest.raises(DomainError):
        secant_solve(lambda x: x, 0.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        secant_solve(lambda x: x, 0.0, 0.0, 1.0, tol=-1.0)
    with pytest.raises(NumericError):
        secant_solve(lambda x: 1.0, 0.0, 0.0, 1.0)  # flat secant slope


def test_residual_contract():
    cases = [
        newton_solve(lambda x: x**3 - x - 2.0, 0.0, 1.5),
        newton_solve(math.cos, 0.5, 1.0),
        secant_solve(lambda x: math.exp(x) - 3.0, 0.0, 0.0, 2.0),
    ]
    for result in cases:
        assert result.converged
        assert result.residual <= 1e-10


def test_newton_quadratic_convergence():
    iterates = []

    def f(x):
        iterates.append(x)
        return x * x - 2.0

    result = newton_solve(f, 0.0, 2.0, fprime=lambda x: 2 * x)
    assert result.converged
    residuals = [abs(x * x - 2.0) for x in iterates]
    for r_k, r_next in zip(residuals, residuals[1:]):
        if r_k < 0.1:
            assert r_next <= r_k * r_k


def test_shift_by_c_matches_shifted_function_bitwise():
    f = lambda x: x * x * x - x

    def shifted(x):
        return f(x) - 0.75

    for fprime in (None, lambda x: 3 * x * x - 1.0):
        a = newton_solve(f, 0.75, 1.7, fprime=fprime)
        b = newton_solve(shifted, 0.0, 1.7, fprime=fprime)
        assert a.root == b.root
        assert a.iterations == b.iterations
        assert a.residual == b.residual
    a = secant_solve(f, 0.75, 1.2, 1.9)
    b = secant_solve(shifted, 0.0, 1.2, 1.9)
    assert a.root == b.root and a.iterations == b.iterations


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_start_or_target_rejected_before_evaluating(bad):
    def f(x):
        raise AssertionError("evaluated")

    with pytest.raises(DomainError, match="x0 must be finite"):
        newton_solve(f, 0.0, bad)
    with pytest.raises(DomainError, match="c must be finite"):
        newton_solve(f, bad, 1.0)
    with pytest.raises(DomainError, match="x1 must be finite"):
        secant_solve(f, 0.0, 1.0, bad)
    with pytest.raises(DomainError, match="c must be finite"):
        secant_solve(f, bad, 1.0, 2.0)


def test_infinite_tolerance_rejected_before_evaluating():
    def f(x):
        raise AssertionError("evaluated")

    with pytest.raises(DomainError, match="tolerance must be finite, got inf"):
        newton_solve(f, 0.0, 1.0, tol=math.inf)
    with pytest.raises(DomainError, match="tolerance must be finite, got inf"):
        secant_solve(f, 0.0, 1.0, 2.0, tol=math.inf)


def test_secant_step_that_does_not_move_the_iterate_is_numeric_error():
    # below the last residual, r / slope rounds away and two iterates coincide
    with pytest.raises(NumericError, match="secant slope is non-finite at iterate 1.41421356"):
        secant_solve(lambda x: x * x - 2.0, 0.0, 1.0, 2.0, tol=1e-20)


def test_newton_difference_step_that_does_not_move_the_iterate_is_numeric_error():
    # 3e9 + 1e-7 rounds back to 3e9, which read as a flat derivative
    with pytest.raises(NumericError, match="step h=1e-07 is too small to move the point 3000000000.0"):
        newton_solve(lambda x: x * x, 1e20, 3e9)
