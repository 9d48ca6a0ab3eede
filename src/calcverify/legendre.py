"""Legendre polynomials built by two independent routes.

The Gram-Schmidt route orthogonalizes the monomials 1, x, x^2, ... under
the L2 inner product on [-1, 1]; the recurrence route applies the
three-term recurrence (k+1) P_{k+1} = (2k+1) x P_k - k P_{k-1}.  Each
route serves as an oracle for the other.  Both are carried out in exact
rational arithmetic and rounded to floats only at the API boundary, so
the emitted coefficients are correctly rounded regardless of degree.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache

from ._record import Record
from .errors import CapabilityError, DomainError, NumericError

# Monomial Gram-Schmidt is kept within a documented degree cap; the
# recurrence route is authoritative beyond it.
GRAM_SCHMIDT_MAX_DEGREE = 64

_NEWTON_MAX_ITERS = 100
_NEWTON_STEP_TOL = 1e-15

# Roots are polished in fixed point at scale S = 2^_FIXED_BITS and rounded
# to multiples of 2^-_GRID_BITS (~36 digits), so that downstream
# quantities (the closed-form weights in particular) round correctly to
# doubles.
_FIXED_BITS = 240
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
    if n < 0:
        raise DomainError("degree must be nonnegative")
    if n > GRAM_SCHMIDT_MAX_DEGREE:
        raise CapabilityError(
            f"Gram-Schmidt route supports degree <= {GRAM_SCHMIDT_MAX_DEGREE} "
            f"(got {n}); use legendre_recurrence instead"
        )
    return _to_polynomials(_gram_schmidt_exact(n))


def legendre_recurrence(n: int) -> list[Polynomial]:
    """P_0..P_n via the three-term recurrence."""
    if n < 0:
        raise DomainError("degree must be nonnegative")
    return _to_polynomials(_recurrence_exact(n))


@lru_cache(maxsize=None)
def _recurrence_floats(n: int) -> tuple[tuple[float, float, float], ...]:
    # (2k+1, k, k+1) for k = 1..n-1 as floats: each small integer converts
    # exactly, so the recurrence rounds as with ints, minus the conversions
    return tuple((2.0 * k + 1.0, float(k), k + 1.0) for k in range(1, n))


def legendre_value_and_derivative(n: int, x: float) -> tuple[float, float]:
    """(P_n(x), P_n'(x)) by the value recurrence."""
    if n == 0:
        return 1.0, 0.0
    prev, cur = 1.0, x
    for a, b, c in _recurrence_floats(n):
        prev, cur = cur, (a * x * cur - b * prev) / c
    if x == 1.0 or x == -1.0:
        d = 0.5 * n * (n + 1)
        if x < 0.0 and n % 2 == 0:
            d = -d
        return cur, d
    return cur, n * (x * cur - prev) / (x * x - 1.0)


def _newton_root(n: int, guess: float) -> float:
    x = guess
    for _ in range(_NEWTON_MAX_ITERS):
        p, d = legendre_value_and_derivative(n, x)
        if d == 0.0:
            break
        step = p / d
        x -= step
        if abs(step) <= _NEWTON_STEP_TOL:
            return x
    raise NumericError(
        f"Newton iteration for the degree-{n} root did not converge "
        f"from initial guess {guess!r}"
    )


@lru_cache(maxsize=None)
def integer_coefficients(n: int) -> tuple[int, ...]:
    """Coefficients of 2^n P_n, which are integers; entry i multiplies x^i.

    The coefficient of x^(n-2k) is (-1)^k C(n, k) C(2n-2k, n); the odd
    (for even n) or even (for odd n) powers vanish.
    """
    coeffs = [0] * (n + 1)
    for k in range(n // 2 + 1):
        coeffs[n - 2 * k] = (-1) ** k * math.comb(n, k) * math.comb(2 * n - 2 * k, n)
    return tuple(coeffs)


def _horner_fixed(n: int, x: int) -> tuple[int, int]:
    """(S 2^n P_n(x/S), S 2^n P_n'(x/S)) at scale S = 2^240, for n >= 1.

    P_n holds only powers of n's parity, so 2^n P_n(x) = x^r Q(x^2) with
    r = n mod 2.  One Horner pass over Q's floor(n/2) + 1 coefficients
    carries Q and Q' at y = x^2; then P' = 2x Q' for even n and
    Q + 2y Q' for odd n.  Each product is truncated back to scale S,
    which costs ~n units of 2^-240, far below the 2^-120 grid.
    """
    r = n % 2
    coeffs = integer_coefficients(n)[r::2]
    y = (x * x) >> _FIXED_BITS
    q, dq = coeffs[-1] << _FIXED_BITS, 0
    for c in reversed(coeffs[:-1]):
        dq = ((dq * y) >> _FIXED_BITS) + q
        q = ((q * y) >> _FIXED_BITS) + (c << _FIXED_BITS)
    if r:
        return (x * q) >> _FIXED_BITS, q + ((y * dq) >> (_FIXED_BITS - 1))
    return q, (x * dq) >> (_FIXED_BITS - 1)


@lru_cache(maxsize=None)
def positive_roots_fixed(n: int) -> tuple[int, ...]:
    """Ascending positive roots of P_n as integer multiples of 2^-120.

    Float Newton from Tricomi's guesses
    (1 - (n-1)/(8n^3)) cos(pi (4k-1) / (4n+2)) lands within an ulp; one
    Newton step in fixed point at scale 2^240 then squares the accuracy
    far past double precision before the root is rounded to the 2^-120
    grid.  Each root is within ~2^-90 of the true root: the integer
    2^n P_n changes sign between root - 2^-90 and root + 2^-90.
    """
    out = []
    shrink = 1.0 - (n - 1) / (8.0 * n**3)
    for k in range(1, n // 2 + 1):
        guess = shrink * math.cos(math.pi * (4 * k - 1) / (4 * n + 2))
        x = int(_newton_root(n, guess) * 2.0**_FIXED_BITS)
        p, d = _horner_fixed(n, x)
        x -= (p << _FIXED_BITS) // d
        out.append((x + (1 << (_GRID_SHIFT - 1))) >> _GRID_SHIFT)
    out.sort()
    return tuple(out)


def gauss_weight(n: int, root: int) -> float:
    """Gauss weight w = 2 / ((1 - x^2) P_n'(x)^2) at x = root / 2^120.

    ``root`` is 0 or one of ``positive_roots_fixed(n)``.  With X = S x and
    D = S 2^n P_n'(x) the weight is 2 4^n S^4 / ((S^2 - X^2) D^2): one
    int/int division, which Python rounds correctly.  X is exact and D
    is off by ~n parts in 2^240, so the double is rounded once.
    """
    x = root << _GRID_SHIFT
    _, d = _horner_fixed(n, x)
    return (2 << (2 * n + 4 * _FIXED_BITS)) / (((1 << (2 * _FIXED_BITS)) - x * x) * d * d)


def legendre_roots(n: int) -> RootSet:
    """All n roots of P_n, ascending.

    Only the positive half is computed; the negative half is mirrored
    and an exact zero is inserted for odd n, so symmetry holds
    structurally.
    """
    if n < 1:
        raise DomainError("root count must be a positive integer")
    positive = [x / (1 << _GRID_BITS) for x in positive_roots_fixed(n)]
    roots = [-r for r in reversed(positive)]
    if n % 2 == 1:
        roots.append(0.0)
    roots.extend(positive)
    return RootSet(roots=tuple(roots), n=n)


def analytic_inner_product(p: Polynomial, q: Polynomial) -> float:
    """Integral of p*q over [-1, 1] from coefficients (exact moments)."""
    terms = []
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            if (i + j) % 2 == 0:
                terms.append(a * b * (2.0 / (i + j + 1)))
    return math.fsum(terms)

