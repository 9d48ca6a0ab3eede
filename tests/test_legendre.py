import math
import random
from fractions import Fraction

import pytest

from calcverify import (
    CapabilityError,
    DomainError,
    NumericError,
    Polynomial,
    legendre_gram_schmidt,
    legendre_recurrence,
    legendre_roots,
    poly_derivative,
    poly_eval,
)
from calcverify import legendre
from calcverify.legendre import (
    _FIXED_BITS,
    _GRID_BITS,
    _horner_coefficients,
    _horner_fixed,
    _newton_root,
    _recurrence_exact,
    analytic_inner_product,
    closed_form_weight,
    gauss_weight,
    integer_coefficients,
    legendre_value_and_derivative,
    positive_roots_and_derivatives,
)


def test_gram_schmidt_low_degrees():
    polys = legendre_gram_schmidt(2)
    assert polys[0].coeffs == (1.0,)
    assert polys[1].coeffs == (0.0, 1.0)
    # orthogonalize x^2 against {1, x} by hand: x^2 - 1/3, rescaled so P_2(1) = 1
    assert polys[2].coeffs == (-0.5, 0.0, 1.5)


def test_recurrence_low_degrees():
    polys = legendre_recurrence(4)
    assert polys[1].coeffs == (0.0, 1.0)
    # apply the recurrence by hand from P_1, P_2: P_3 = (5x^3 - 3x)/2
    assert polys[3].coeffs == (0.0, -1.5, 0.0, 2.5)
    assert math.isclose(poly_eval(polys[4], 1.0), 1.0, abs_tol=1e-12)


def test_routes_agree():
    gs = legendre_gram_schmidt(20)
    rec = legendre_recurrence(20)
    for pg, pr in zip(gs, rec):
        assert pg.degree == pr.degree
        for a, b in zip(pg.coeffs, pr.coeffs):
            assert abs(a - b) <= 1e-10


def test_integer_coefficients_match_exact_recurrence():
    # the closed form (-1)^k C(n,k) C(2n-2k,n) against 2^n times the
    # three-term recurrence carried out in exact rationals
    exact = _recurrence_exact(64)
    for n in range(65):
        assert [Fraction(c) for c in integer_coefficients(n)] == [2**n * c for c in exact[n]]


def test_gram_schmidt_range_errors():
    with pytest.raises(CapabilityError):
        legendre_gram_schmidt(65)
    with pytest.raises(DomainError):
        legendre_gram_schmidt(-1)
    with pytest.raises(DomainError):
        legendre_recurrence(-1)


def test_poly_eval_examples():
    p3 = legendre_recurrence(3)[3]
    assert poly_eval(p3, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert poly_eval(p3, 0.0) == 0.0
    p2 = legendre_recurrence(2)[2]
    assert poly_eval(p2, 0.5) == pytest.approx(-0.125, abs=1e-15)


def test_poly_derivative_examples():
    assert poly_derivative(Polynomial((7.0,))).coeffs == (0.0,)
    p2 = legendre_recurrence(2)[2]
    assert poly_derivative(p2).coeffs == (0.0, 3.0)
    cubic = Polynomial((0.0, 0.0, 0.0, 1.0))
    assert poly_derivative(cubic).coeffs == (0.0, 0.0, 3.0)


def test_polynomial_trims_trailing_zeros():
    assert Polynomial((1.0, 2.0, 0.0)).coeffs == (1.0, 2.0)
    assert Polynomial((0.0, 0.0)).coeffs == (0.0,)
    assert Polynomial((0.0,)).degree == 0


def test_roots_examples():
    assert legendre_roots(1).roots == (0.0,)
    r2 = legendre_roots(2).roots
    assert r2[0] == pytest.approx(-1 / math.sqrt(3), abs=1e-15)
    assert r2[1] == pytest.approx(1 / math.sqrt(3), abs=1e-15)
    r3 = legendre_roots(3).roots
    assert r3[1] == 0.0
    assert r3[2] == pytest.approx(math.sqrt(3 / 5), abs=1e-15)


def test_roots_require_positive_count():
    with pytest.raises(DomainError):
        legendre_roots(0)


def test_newton_root_from_a_flat_guess_does_not_converge():
    # P_2'(0) = 0, so the first Newton step is undefined
    with pytest.raises(NumericError) as info:
        _newton_root(2, 0.0)
    assert str(info.value) == (
        "Newton iteration for the degree-2 root did not converge from initial guess 0.0"
    )


@pytest.mark.parametrize("n", list(range(1, 65)))
def test_root_invariants(n):
    rs = legendre_roots(n)
    assert rs.n == n and len(rs.roots) == n
    for r in rs.roots:
        assert -1.0 < r < 1.0
        assert abs(legendre_value_and_derivative(n, r)[0]) <= 1e-13
    for a, b in zip(rs.roots, rs.roots[1:]):
        assert a < b
    # mirrored construction makes symmetry exact
    for i in range(n):
        assert rs.roots[i] == -rs.roots[n - 1 - i]
    if n % 2 == 1:
        assert rs.roots[n // 2] == 0.0


def test_interlacing():
    for n in range(1, 21):
        inner = legendre_roots(n).roots
        outer = legendre_roots(n + 1).roots
        for i, r in enumerate(inner):
            assert outer[i] < r < outer[i + 1]


@pytest.mark.parametrize("route", [legendre_gram_schmidt, legendre_recurrence])
def test_orthogonality_and_normalization(route):
    polys = route(12)
    for i in range(13):
        assert abs(poly_eval(polys[i], 1.0) - 1.0) <= 1e-12
        for j in range(i + 1, 13):
            assert abs(analytic_inner_product(polys[i], polys[j])) <= 1e-10


def _horner_full(n, x):
    # Horner over all n + 1 coefficients, the vanishing ones included: the
    # pass that the parity split in _horner_fixed halved, kept as its reference
    coeffs = integer_coefficients(n)
    p, d = coeffs[n] << _FIXED_BITS, 0
    for c in reversed(coeffs[:n]):
        d = ((d * x) >> _FIXED_BITS) + p
        p = ((p * x) >> _FIXED_BITS) + (c << _FIXED_BITS)
    return p, d


def _horner_truncating(n, x):
    # the parity pass with y = x^2 truncated to scale S too: the reference
    # that _horner_fixed, which squares x exactly, equals where 2s <= F
    coeffs = _horner_coefficients(n)
    y = (x * x) >> _FIXED_BITS
    q, dq = coeffs[0], 0
    for c in coeffs[1:]:
        dq = ((dq * y) >> _FIXED_BITS) + q
        q = ((q * y) >> _FIXED_BITS) + c
    if n % 2:
        return (x * q) >> _FIXED_BITS, q + ((y * dq) >> (_FIXED_BITS - 1))
    return q, (x * dq) >> (_FIXED_BITS - 1)


def _float_roots(monkeypatch, n):
    # the float roots that positive_roots_and_derivatives(n) polishes, ascending
    found = []
    newton = legendre._newton_root
    monkeypatch.setattr(legendre, "_newton_root", lambda *a: found.append(newton(*a)) or found[-1])
    roots = positive_roots_and_derivatives(n)[0]
    monkeypatch.setattr(legendre, "_newton_root", newton)
    return sorted(found), roots


def test_the_exact_square_gives_the_truncating_pass_integers_at_half_width_points(monkeypatch):
    # a point with at most F/2 fractional bits squares to at most F bits, so
    # truncating x^2 to scale S drops nothing: both passes give equal integers
    # at every float root, at 0 and at points on the 2^-(F/2) grid
    rng = random.Random(29)
    half = _FIXED_BITS // 2
    for n in range(1, 65):
        x0s = [int(x * 2.0**_FIXED_BITS) for x in _float_roots(monkeypatch, n)[0]]
        assert len(x0s) == n // 2
        points = x0s + [-x for x in x0s] + [0]
        points += [rng.randrange(-(1 << half), (1 << half) + 1) << half for _ in range(10)]
        for x in points:
            assert _horner_fixed(n, x) == _horner_truncating(n, x), (n, x)


def test_newton_stops_within_2_to_the_minus_52_of_every_grid_root(monkeypatch):
    # the Taylor step to each root's P_n' assumes |x - x0| < 2^-52
    for n in range(1, 65):
        x0s, roots = _float_roots(monkeypatch, n)
        for x0, r in zip(x0s, roots):
            assert abs(int(x0 * 2.0**_GRID_BITS) - r) < 1 << (_GRID_BITS - 52), (n, r)


def test_all_64_rules_take_at_most_1600_float_evaluations(monkeypatch):
    # Tricomi's guess with its n^-4 term and the stop on Newton's own error
    # estimate; the n^-3 guess with the step-size stop alone took 2063
    calls = []
    value = legendre.legendre_value_and_derivative
    monkeypatch.setattr(legendre, "legendre_value_and_derivative", lambda n, x: calls.append(n) or value(n, x))
    for n in range(1, 65):
        positive_roots_and_derivatives(n)
    assert len(calls) <= 1600


def test_parity_horner_matches_the_full_pass():
    # both truncate each product to scale S; the difference stays
    # within 2 n sum|c_i| units of 1/S (0.002 of that measured)
    rng = random.Random(13)
    one = 1 << _FIXED_BITS
    for n in range(1, 65):
        bound = 2 * n * sum(abs(c) for c in integer_coefficients(n))
        points = [r << (_FIXED_BITS - _GRID_BITS) for r in positive_roots_and_derivatives(n)[0]]
        points += [rng.randrange(-one, one + 1) for _ in range(20)]
        for x in points:
            p, d = _horner_fixed(n, x)
            p_ref, d_ref = _horner_full(n, x)
            assert abs(p - p_ref) <= bound and abs(d - d_ref) <= bound, (n, x)


def _value_and_derivative_ref(n, x):
    # the recurrence with int coefficients, as before they became floats
    if n == 0:
        return 1.0, 0.0
    prev, cur = 1.0, x
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1) * x * cur - k * prev) / (k + 1)
    if x == 1.0 or x == -1.0:
        d = 0.5 * n * (n + 1)
        if x < 0.0 and n % 2 == 0:
            d = -d
        return cur, d
    return cur, n * (x * cur - prev) / (x * x - 1.0)


def test_value_recurrence_keeps_its_bits():
    rng = random.Random(7)
    cases = [(n, x) for n in range(0, 65) for x in (-1.0, 1.0, 0.0)]
    cases += [(rng.randint(0, 64), rng.uniform(-1.25, 1.25)) for _ in range(5000)]
    for n, x in cases:
        assert legendre_value_and_derivative(n, x) == _value_and_derivative_ref(n, x), (n, x)


def _sign_of_scaled_legendre(n, x):
    # sign of 2^n P_n(x / 2^120), exactly: sum c_i x^i 2^(120 (n - i))
    acc = 0
    for i, c in enumerate(reversed(integer_coefficients(n))):
        acc = acc * x + (c << (_GRID_BITS * i))
    return (acc > 0) - (acc < 0)


@pytest.mark.parametrize("n", range(2, 65))
def test_fixed_roots_bracket_a_sign_change_within_2_to_the_minus_90(n):
    radius = 1 << (_GRID_BITS - 90)
    for r in positive_roots_and_derivatives(n)[0]:
        below = _sign_of_scaled_legendre(n, r - radius)
        above = _sign_of_scaled_legendre(n, r + radius)
        assert below * above == -1, (n, r)


def test_the_roots_pass_weights_match_the_reference_route_for_every_root():
    # The pass takes S 2^n P_n' at the grid root x by a Taylor step from the
    # float root x0.  |x - x0| < 2^-52 (1.1e-16 measured) and the third
    # derivative is at most P_n'''(1) = 15 C(n+3, 6) on [-1, 1], so the
    # step's remainder stays below 15 C(n+3, 6) 2^-105 in units of 2^-n S;
    # the truncations of both passes add 2 n sum|c_i| units at most
    for n in range(1, 65):
        roots, derivatives = positive_roots_and_derivatives(n)
        bound = (15 * math.comb(n + 3, 6) << (n + _FIXED_BITS - 105)) + 2 * n * sum(
            abs(c) for c in integer_coefficients(n)
        )
        for r, d in zip(roots, derivatives):
            reference = _horner_fixed(n, r << (_FIXED_BITS - _GRID_BITS))[1]
            assert abs(d - reference) <= bound, (n, r)
            assert closed_form_weight(n, r, d) == gauss_weight(n, r), (n, r)
