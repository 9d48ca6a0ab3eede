"""Legendre polynomials built by two independent routes.

The Gram-Schmidt route orthogonalizes the monomials 1, x, x^2, ... under
the L2 inner product on [-1, 1]; the recurrence route applies the
three-term recurrence (k+1) P_{k+1} = (2k+1) x P_k - k P_{k-1}.  Each
route serves as an oracle for the other.  Both are carried out in exact
rational arithmetic and rounded to floats only at the API boundary, so
the emitted coefficients are correctly rounded regardless of degree.
The Gauss rule builder polishes in integer fixed point the roots that
float Newton finds with ``quadrature``'s float recurrence for P_n.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache

from ._record import Record
from .errors import CapabilityError, DomainError, NumericError, _integer
from .quadrature import legendre_value_and_derivative

# Monomial Gram-Schmidt is kept within a documented degree cap; the
# recurrence route is authoritative beyond it.
GRAM_SCHMIDT_MAX_DEGREE = 64

_NEWTON_MAX_ITERS = 100
_NEWTON_STEP_TOL = 1e-10
_NEWTON_ERROR_TOL = 2.0**-56

# Roots are polished in fixed point at scale S = 2^_FIXED_BITS and rounded
# to multiples of 2^-_GRID_BITS (~36 digits), so that downstream
# quantities (the closed-form weights in particular) round correctly to
# doubles.
_FIXED_BITS = 160
_GRID_BITS = 120
_GRID_SHIFT = _FIXED_BITS - _GRID_BITS


class Polynomial(Record):
    """Dense real polynomial; ``coeffs[i]`` multiplies ``x**i``.

    The trailing coefficient is nonzero unless the polynomial is
    identically zero (represented as a single zero coefficient).
    """

    coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        cs = tuple(float(c) for c in self.coeffs)
        while len(cs) > 1 and cs[-1] == 0.0:
            cs = cs[:-1]
        if not cs:
            cs = (0.0,)
        object.__setattr__(self, "coeffs", cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


class RootSet(namedtuple("RootSet", "roots n")):
    """Roots of a Legendre polynomial, sorted ascending, all in (-1, 1)."""

    __slots__ = ()


def poly_eval(p: Polynomial, x: float) -> float:
    """Evaluate ``p`` at ``x`` by Horner's scheme."""
    acc = 0.0
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def poly_derivative(p: Polynomial) -> Polynomial:
    """Termwise derivative of ``p``."""
    return Polynomial(tuple((i + 1) * c for i, c in enumerate(p.coeffs[1:])))


def _gram_schmidt_exact(n: int) -> list[list[Fraction]]:
    # the exact routes import fractions themselves, so a CLI start never does
    from fractions import Fraction

    # moment[m] is the integral of x^m over [-1, 1]
    moment = [Fraction(2, m + 1) if m % 2 == 0 else Fraction(0) for m in range(2 * n + 1)]
    basis: list[list[Fraction]] = []
    norms: list[Fraction] = []
    for k in range(n + 1):
        v = [Fraction(0)] * (k + 1)
        v[k] = Fraction(1)
        # project x^k onto each already-orthogonal predecessor
        for u, uu in zip(basis, norms):
            # <x^k, u> under the L2 inner product on [-1, 1]
            coef = sum((c * moment[i + k] for i, c in enumerate(u)), Fraction(0)) / uu
            if coef:
                for i, c in enumerate(u):
                    v[i] -= coef * c
        scale = sum(v)  # value at x = 1
        v = [c / scale for c in v]
        basis.append(v)
        norms.append(
            sum(
                (a * b * moment[i + j] for i, a in enumerate(v) for j, b in enumerate(v)),
                Fraction(0),
            )
        )
    return basis


def _recurrence_exact(n: int) -> list[list[Fraction]]:
    from fractions import Fraction

    polys = [[Fraction(1)]]
    if n >= 1:
        polys.append([Fraction(0), Fraction(1)])
    for k in range(1, n):
        pk, pkm1 = polys[k], polys[k - 1]
        nxt = [Fraction(0)] * (k + 2)
        for i, c in enumerate(pk):
            nxt[i + 1] += Fraction(2 * k + 1, k + 1) * c
        for i, c in enumerate(pkm1):
            nxt[i] -= Fraction(k, k + 1) * c
        polys.append(nxt)
    return polys[: n + 1]


def _to_polynomials(exact: list[list[Fraction]]) -> list[Polynomial]:
    return [Polynomial(tuple(float(c) for c in p)) for p in exact]


def legendre_gram_schmidt(n: int) -> list[Polynomial]:
    """P_0..P_n via Gram-Schmidt on the monomial basis, P_k(1) = 1.

    Inner products use the exact monomial integrals (2/(m+1) for even m,
    0 for odd m), never quadrature.
    """
    if _integer("degree", n) < 0:
        raise DomainError("degree must be nonnegative")
    if n > GRAM_SCHMIDT_MAX_DEGREE:
        raise CapabilityError(
            f"Gram-Schmidt route supports degree <= {GRAM_SCHMIDT_MAX_DEGREE} "
            f"(got {n}); use legendre_recurrence instead"
        )
    return _to_polynomials(_gram_schmidt_exact(n))


def legendre_recurrence(n: int) -> list[Polynomial]:
    """P_0..P_n via the three-term recurrence."""
    if _integer("degree", n) < 0:
        raise DomainError("degree must be nonnegative")
    return _to_polynomials(_recurrence_exact(n))


def _newton_root(n: int, guess: float) -> float:
    x = guess
    for _ in range(_NEWTON_MAX_ITERS):
        p, d = legendre_value_and_derivative(n, x)
        if d == 0.0:
            break
        step = p / d
        x -= step
        # x step^2 / (1 - x^2) is the next error's quadratic term at a root
        if abs(step) <= _NEWTON_STEP_TOL or abs(x) * step * step <= _NEWTON_ERROR_TOL * abs(1.0 - x * x):
            return x
    raise NumericError(
        f"Newton iteration for the degree-{n} root did not converge "
        f"from initial guess {guess!r}"
    )


def integer_coefficients(n: int) -> tuple[int, ...]:
    """Coefficients of 2^n P_n, which are integers; entry i multiplies x^i.

    The coefficient of x^(n-2k) is (-1)^k C(n, k) C(2n-2k, n); the odd
    (for even n) or even (for odd n) powers vanish.
    """
    coeffs = [0] * (n + 1)
    for k in range(n // 2 + 1):
        coeffs[n - 2 * k] = (-1) ** k * math.comb(n, k) * math.comb(2 * n - 2 * k, n)
    return tuple(coeffs)


@lru_cache(maxsize=None)
def _horner_coefficients(n: int) -> tuple[int, ...]:
    # the nonzero coefficients of 2^n P_n, highest power first, at scale S
    return tuple(c << _FIXED_BITS for c in reversed(integer_coefficients(n)[n % 2 :: 2]))


def _horner_fixed(n: int, x: int) -> tuple[int, int]:
    """(S 2^n P_n(x/S), S 2^n P_n'(x/S)) at scale S = 2^160, for n >= 1.

    P_n holds only powers of n's parity, so 2^n P_n(x) = x^r Q(x^2) with
    r = n mod 2.  One Horner pass over Q's floor(n/2) + 1 coefficients
    carries Q and Q' at y = x^2; then P' = 2x Q' for even n and
    Q + 2y Q' for odd n.  With x/S = num / 2^s, trailing zero bits
    stripped, y = num^2 is x^2 exactly at scale 2^(2s): a float root
    multiplies by 2s <= 118 bits (n <= 129), not 160.  Each product is
    truncated back to scale S, which costs ~n units of 2^-160, far below
    the 2^-120 grid; where 2s <= 160 these are the integers of a pass
    that truncates y to scale S too.
    """
    coeffs = _horner_coefficients(n)
    s = max(_FIXED_BITS + 1 - (x & -x).bit_length(), 1) if x else 1
    y, shift = (x >> (_FIXED_BITS - s)) ** 2, 2 * s
    q, dq = coeffs[0], 0
    for c in coeffs[1:]:
        dq = ((dq * y) >> shift) + q
        q = ((q * y) >> shift) + c
    if n % 2:
        return (x * q) >> _FIXED_BITS, q + ((y * dq) >> (shift - 1))
    return q, (x * dq) >> (_FIXED_BITS - 1)


def positive_roots_and_derivatives(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Ascending positive roots of P_n on the 2^-120 grid, and S 2^n P_n' there.

    One fixed-point pass per root gives both.  Float Newton starts from
    Tricomi's guesses (1 - (n-1)/(8n^3) - (39 - 28/sin^2 t)/(384n^4)) cos t,
    t = pi (4k-1) / (4n+2).  It stops once a step is at most 1e-10 or
    the next error's quadratic term x step^2 / (1 - x^2) is at most
    2^-56, below the double grid; each float root x0 then lies within
    2^-53 of the x below (n <= 129).  One Horner pass at scale S = 2^160
    at x0 gives p = S 2^n P_n(x0) and d = S 2^n P_n'(x0).  The Newton
    step x0 - p/d in fixed point squares the accuracy far past double
    precision before the root is rounded to x on the 2^-120 grid.  The
    derivative at x is one Taylor step from x0,
    d + S 2^n P_n''(x0) (x - x0), with P_n'' from Legendre's equation
    (1 - x^2) P_n'' = 2x P_n' - n(n+1) P_n in the same integers.  Its
    truncation error is S 2^n P_n'''(xi) (x - x0)^2 / 2: with
    |x - x0| < 2^-52 and |P_n'''| <= P_n'''(1) = 15 C(n+3, 6), below
    2^-77 of the derivative for n <= 64 (2^-87 measured), whatever S.
    Each root is within ~2^-90 of the true root (2^-97 measured): the
    integer 2^n P_n changes sign between root - 2^-90 and root + 2^-90.
    """
    pairs = []
    for k in range(1, n // 2 + 1):
        t = math.pi * (4 * k - 1) / (4 * n + 2)
        guess = (1.0 - (n - 1) / (8.0 * n**3) - (39.0 - 28.0 / math.sin(t) ** 2) / (384.0 * n**4)) * math.cos(t)
        num, den = _newton_root(n, guess).as_integer_ratio()  # den = 2^s, 2s <= F
        s = den.bit_length() - 1
        x0 = num << (_FIXED_BITS - s)
        p, d = _horner_fixed(n, x0)
        root = (x0 - (p << _FIXED_BITS) // d + (1 << (_GRID_SHIFT - 1))) >> _GRID_SHIFT
        # (1 - x0^2) S 2^n P_n''(x0), by Legendre's equation; dividing by
        # (1 - x0^2) S^2 = 2^(2F-2s) (den^2 - num^2) brings it times x - x0 to scale S
        curvature = ((2 * x0 * d) >> _FIXED_BITS) - n * (n + 1) * p
        step = (curvature * ((root << _GRID_SHIFT) - x0)) >> (_FIXED_BITS - 2 * s)
        pairs.append((root, d + step // (den * den - num * num)))
    pairs.sort()
    return tuple(r for r, _ in pairs), tuple(d for _, d in pairs)


def closed_form_weight(n: int, root: int, d: int) -> float:
    """Gauss weight w = 2 / ((1 - x^2) P_n'(x)^2) at x = root / 2^120.

    ``d`` is D = S 2^n P_n'(x) at scale S = 2^160.  With X = S x the
    weight is 2 4^n S^4 / ((S^2 - X^2) D^2): one int/int division,
    which Python rounds correctly.  X is exact, since S >= 2^120, so
    with D close enough the double is rounded once.
    """
    x = root << _GRID_SHIFT
    return (2 << (2 * n + 4 * _FIXED_BITS)) / (((1 << (2 * _FIXED_BITS)) - x * x) * d * d)


def gauss_weight(n: int, root: int) -> float:
    """Gauss weight at x = root / 2^120, by the reference route.

    ``root`` is 0 or a root from ``positive_roots_and_derivatives(n)``.
    A Horner pass at the root itself gives D off by ~n parts in 2^160;
    ``gauss_nodes_and_weights`` takes it for the zero node of odd n
    alone.  The positive roots take D from their own pass, whose Taylor
    step adds a truncation error below 2^-77 of D (2^-87 measured);
    every weight for n = 1..64 is the same double both ways.
    """
    return closed_form_weight(n, root, _horner_fixed(n, root << _GRID_SHIFT)[1])


@lru_cache(maxsize=None)
def gauss_nodes_and_weights(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Nodes and weights of the n-point Gauss rule, ascending; n >= 1.

    Each positive root, rounded once from the 2^-120 grid, is paired with
    its ``closed_form_weight``, whose P_n' comes from the pass that
    polished the root; odd n adds the exact zero node with its
    ``gauss_weight``.  The negative half mirrors nodes and weights
    together, so symmetry holds structurally.  This is the one cache of
    built rules: ``gauss_rule`` and ``legendre_roots`` both read it.
    """
    roots, derivatives = positive_roots_and_derivatives(n)
    pairs = [(x / (1 << _GRID_BITS), closed_form_weight(n, x, d)) for x, d in zip(roots, derivatives)]
    middle = [(0.0, gauss_weight(n, 0))] if n % 2 else []
    return tuple(zip(*[(-x, w) for x, w in reversed(pairs)], *middle, *pairs))


def legendre_roots(n: int) -> RootSet:
    """All n roots of P_n, ascending: the nodes of ``gauss_nodes_and_weights``."""
    if _integer("root count", n) < 1:
        raise DomainError("root count must be a positive integer")
    return RootSet(roots=gauss_nodes_and_weights(n)[0], n=n)


def analytic_inner_product(p: Polynomial, q: Polynomial) -> float:
    """Integral of p*q over [-1, 1] from coefficients (exact moments)."""
    terms = []
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            if (i + j) % 2 == 0:
                terms.append(a * b * (2.0 / (i + j + 1)))
    return math.fsum(terms)

