"""The exact routes, oracles for the Gauss rule builder; no CLI path loads them.

Legendre polynomials by Gram-Schmidt and by the three-term recurrence,
each the other's oracle, and Gauss weights by the moment system, the
closed form's; exact rationals, rounded once to floats.  Each name also
resolves under its old module, ``legendre`` or ``quadrature``.
"""

from __future__ import annotations

import math
from collections import namedtuple

from ._record import Record
from .errors import CapabilityError, DomainError, NumericError, _integer
from .legendre import gauss_nodes_and_weights

# Monomial Gram-Schmidt is kept within a documented degree cap; the
# recurrence route is authoritative beyond it.
GRAM_SCHMIDT_MAX_DEGREE = 64
# The exact moment-system solve slows steeply with the node count (its
# rationals grow); the closed form is authoritative above this cap.
LINEAR_SYSTEM_MAX_POINTS = 20


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


def gauss_weights_linear_system(nodes: RootSet | Sequence[float]) -> tuple[float, ...]:
    """Weights from the moment system V w = m, V[i][j] = nodes[j]^i.

    The right-hand side is the monomial moments 2/(i+1) for even i and 0
    for odd i.  The system is solved exactly over the rationals the
    float nodes stand for, by the Bjorck-Pereyra elimination for
    Vandermonde systems (Math. Comp. 24 (1970) 893-903), and each weight
    is rounded once, so the Vandermonde conditioning costs no accuracy.
    """
    xs = nodes.roots if isinstance(nodes, RootSet) else tuple(float(x) for x in nodes)
    n = len(xs)
    if n == 0:
        raise DomainError("at least one node is required")
    if n > LINEAR_SYSTEM_MAX_POINTS:
        raise CapabilityError(
            f"linear-system route supports at most {LINEAR_SYSTEM_MAX_POINTS} nodes "
            f"(got {n}); use gauss_rule instead"
        )
    if not all(math.isfinite(x) for x in xs):
        raise DomainError("nodes must be finite")
    if len(set(xs)) != n:
        raise NumericError("nodes must be distinct (singular moment system)")
    from fractions import Fraction  # the exact oracle alone needs it

    x = [Fraction(v) for v in xs]
    w = [Fraction(2, i + 1) if i % 2 == 0 else Fraction(0) for i in range(n)]
    # the two sweeps apply the lower, then the upper bidiagonal factors of V^-1
    for k in range(n - 1):
        for i in range(n - 1, k, -1):
            w[i] -= x[k] * w[i - 1]
    for k in range(n - 2, -1, -1):
        for i in range(k + 1, n):
            w[i] /= x[i] - x[i - k - 1]
        for i in range(k, n - 1):
            w[i] -= w[i + 1]
    try:
        return tuple(float(v) for v in w)
    except OverflowError:  # nodes very close together make the exact weights huge
        raise NumericError("an exact weight of the moment system overflows a double") from None
