"""Circular CORDIC: sine and cosine from shifts and adds.

Each pseudo-rotation steers the residual angle toward zero using only
additions, subtractions, comparisons, and scaling by 2**-k (exponent
manipulation via ldexp, never a general multiply).  The cumulative
magnitude gain is folded into the start vector, so no final scaling
multiply is needed either.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache

from ._record import Record
from .errors import CapabilityError, DomainError, _finite, _integer

MAX_ITERATIONS = 60
DEFAULT_ITERATIONS = 40

# pi split so the folding correction keeps precision for moderate arguments
_PI_HI = 3.141592653589793
_PI_LO = 1.2246467991473532e-16
# beyond this the quadrant index loses integer precision entirely
_MAX_ARGUMENT = 1e15


class CordicTable(Record):
    """Precomputed arctangent ladder and the folded-in gain for K iterations."""

    iters: int
    angles: tuple[float, ...]
    gain: float


class SinCos(namedtuple("SinCos", "sin cos")):
    __slots__ = ()


def cordic_table(iters: int = DEFAULT_ITERATIONS) -> CordicTable:
    """Table of angles arctan(2**-k), k < iters, and the gain product.

    Host arctan/sqrt are allowed here only; the iteration itself never
    multiplies.  Built tables are cached.
    """
    # checked before the cache, which hashes iters and takes 2.0 for 2
    if not 1 <= _integer("iteration count", iters) <= MAX_ITERATIONS:
        raise CapabilityError(f"iteration count must be in 1..{MAX_ITERATIONS}, got {iters}")
    return _cordic_table(iters)


@lru_cache(maxsize=None)
def _cordic_table(iters: int) -> CordicTable:
    angles = tuple(math.atan(math.ldexp(1.0, -k)) for k in range(iters))
    gain = 1.0
    for k in range(iters):
        gain /= math.sqrt(1.0 + math.ldexp(1.0, -2 * k))
    return CordicTable(iters=iters, angles=angles, gain=gain)


def pseudo_rotate(x, y, z, angles):
    """Run the shift-and-add rotation ladder from state (x, y, z).

    The loop body contains no multiplication: per step only two ldexp
    scalings, additions/subtractions, and a sign test on the residual
    angle.  Generic over the numeric type so tests can thread a
    multiplication-trapping wrapper through it.
    """
    for k, a in enumerate(angles):
        dx = math.ldexp(x, -k)
        dy = math.ldexp(y, -k)
        if z >= 0.0:
            x, y, z = x - dy, y + dx, z - a
        else:
            x, y, z = x + dy, y - dx, z + a
    return x, y, z


def cordic_sincos(theta: float, table: CordicTable | None = None) -> SinCos:
    """Sine and cosine of theta (radians) by K pseudo-rotations.

    theta is folded into [-pi/2, pi/2] by subtracting the nearest
    multiple of pi and flipping both signs when that multiple is odd.
    Error is bounded by about 2**(2-K) plus folding roundoff, which
    grows with |theta|; arguments beyond 1e15 are rejected.
    """
    theta = _finite("theta", float(theta))
    if abs(theta) > _MAX_ARGUMENT:
        raise DomainError(
            f"|theta| > {_MAX_ARGUMENT:g}: quadrant folding would lose all precision"
        )
    if table is None:
        table = cordic_table()
    half_turns = round(theta / math.pi)
    reduced = (theta - half_turns * _PI_HI) - half_turns * _PI_LO
    x, y, _ = pseudo_rotate(table.gain, 0.0, reduced, table.angles)
    if half_turns % 2:
        x, y = -x, -y
    return SinCos(sin=y, cos=x)
