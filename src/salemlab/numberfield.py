"""Gaussian-integer arithmetic and the planar well-approximable blocks.

Residue systems are enumerated through the fundamental parallelogram of
the multiplication lattice, so counts and normalizations are exact integer
comparisons throughout.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator

from .constructions import ConstructionError, StageReport, _power
from .geometry import ONE, ZERO, BoxUnion, _Record
from .primes import is_prime


class GaussianInt(_Record):
    """a + b*i with integer coefficients; immutable, equal and hashed as the pair (a, b)."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        super().__init__(a, b)

    def __sub__(self, o: "GaussianInt") -> "GaussianInt":
        return GaussianInt(self.a - o.a, self.b - o.b)

    def __mul__(self, o: "GaussianInt") -> "GaussianInt":
        return GaussianInt(self.a * o.a - self.b * o.b, self.a * o.b + self.b * o.a)

    def conjugate(self) -> "GaussianInt":
        return GaussianInt(self.a, -self.b)

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0


def norm(q: GaussianInt) -> int:
    """Field norm a^2 + b^2."""
    return q.a * q.a + q.b * q.b


def divides(q: GaussianInt, z: GaussianInt) -> bool:
    """Exact divisibility test: z/q integral iff N(q) divides both parts of z*conj(q)."""
    if q.is_zero:
        raise ConstructionError("division by zero")
    n = norm(q)
    w = z * q.conjugate()
    return w.a % n == 0 and w.b % n == 0


def congruent(r1: GaussianInt, r2: GaussianInt, q: GaussianInt) -> bool:
    return divides(q, r1 - r2)


def mult_matrix(q: GaussianInt) -> tuple[tuple[int, int], tuple[int, int]]:
    """Matrix of multiplication by q on the basis {1, i}: [[a, -b], [b, a]]."""
    return ((q.a, -q.b), (q.b, q.a))


def mult_matrix_inv(q: GaussianInt) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]:
    """Exact inverse (1/N) [[a, b], [-b, a]]."""
    n = norm(q)
    if n == 0:
        raise ConstructionError("zero has no multiplication inverse")
    return (
        (Fraction(q.a, n), Fraction(q.b, n)),
        (Fraction(-q.b, n), Fraction(q.a, n)),
    )


def normalized_center(q: GaussianInt, r: GaussianInt) -> tuple[Fraction, Fraction]:
    """A_q^-1 r as an exact rational point."""
    n = norm(q)
    return (Fraction(q.a * r.a + q.b * r.b, n), Fraction(-q.b * r.a + q.a * r.b, n))


def _residue_pairs(a: int, b: int) -> list[tuple[int, int]]:
    """The (x, y) with 0 <= a*x + b*y < N and 0 <= a*y - b*x < N, N = a^2 + b^2, x then y ascending.

    All lie in the fundamental parallelogram of the lattice (a + bi)Z[i], so
    |x|, |y| <= |a| + |b|: they are found by scanning that box.
    """
    n, bound = a * a + b * b, abs(a) + abs(b)
    box = range(-bound, bound + 1)
    return [(x, y) for x in box for y in box if 0 <= a * x + b * y < n and 0 <= a * y - b * x < n]


def residue_system(q: GaussianInt) -> list[GaussianInt]:
    """The N(q) residue representatives r with A_q^-1 r in the half-open unit square.

    Enumerates integer points of the fundamental parallelogram of the
    lattice q*Z[i]; the half-open normalization picks exactly one
    representative per class.
    """
    if q.is_zero:
        raise ConstructionError("residue system of zero is undefined")
    n = norm(q)
    out = [GaussianInt(x, y) for x, y in _residue_pairs(q.a, q.b)]
    assert len(out) == n, f"residue count {len(out)} != N(q) = {n}"
    return out


def is_gaussian_prime(q: GaussianInt) -> bool:
    """Prime in Z[i]: prime norm, or an inert rational prime p = 3 mod 4."""
    if q.is_zero:
        return False
    if q.a == 0 or q.b == 0:
        p = abs(q.a) or abs(q.b)
        return is_prime(p) and p % 4 == 3
    return is_prime(norm(q))


def gaussian_primes_norm_range(lo: int, hi: int) -> Iterator[GaussianInt]:
    """Canonical Gaussian primes with norm in [lo, hi).

    One associate per prime (a >= 1, b >= 0); conjugate primes above split
    rational primes appear separately since they generate distinct ideals.
    """
    top = math.isqrt(max(hi - 1, 0))
    for a in range(1, top + 1):
        aa = a * a  # below hi, since a <= isqrt(hi - 1)
        if aa >= lo and is_prime(a) and a % 4 == 3:
            yield GaussianInt(a, 0)
        for b in range(1, top + 1):
            n = aa + b * b
            if n >= hi:
                break
            if n >= lo and is_prime(n):
                yield GaussianInt(a, b)


def _block_primes(alpha: float, j: int) -> Iterator[tuple[GaussianInt, int, Fraction]]:
    """(q, N(q), half-side N(q)^-(2+alpha)/2) for the primes q of block j, norms in [4^j, 4^(j+1));
    the half-side is exact when 2 + alpha is an even integer, dyadic otherwise (`_power`)."""
    if alpha < 0:
        raise ConstructionError("alpha must be nonnegative")
    if j < 1:
        raise ConstructionError("block index must be >= 1")
    for q in gaussian_primes_norm_range(4**j, 4 ** (j + 1)):
        n = norm(q)
        yield q, n, _power(n, -(2.0 + alpha) / 2.0)


def gaussian_jarnik_centers(alpha: float, j: int) -> dict[tuple[Fraction, Fraction], Fraction]:
    """Center -> half-side map for block j (norms in [4^j, 4^(j+1))).  A center of several
    primes (only the origin is, see `gaussian_block_reports`) keeps the smallest box."""
    centers: dict[tuple[Fraction, Fraction], Fraction] = {}
    for q, n, half in _block_primes(alpha, j):
        for rx, ry in _residue_pairs(q.a, q.b):  # normalized_center(q, r) for r = rx + i ry
            c = (Fraction(q.a * rx + q.b * ry, n), Fraction(q.a * ry - q.b * rx, n))
            if centers.setdefault(c, half) is not half and half < centers[c]:  # a center seen before
                centers[c] = half
    return centers


def gaussian_jarnik_stage(alpha: float, j: int) -> BoxUnion:
    """Block j of the planar construction as a union of closed squares.

    Each residue center carries the axis-aligned square circumscribing the
    ball of radius |q|^-(2+alpha), clamped to the unit square.  Boxes from
    coinciding centers are deduplicated.
    """
    side = lambda c, h: (max(c - h, ZERO), min(c + h, ONE))
    return BoxUnion(2, [(side(x, h), side(y, h)) for (x, y), h in gaussian_jarnik_centers(alpha, j).items()])


def gaussian_block_reports(alpha: float, blocks: range) -> list[StageReport]:
    """Per-block center counts with the largest box side as the scale, from the primes alone.

    Prime q's centers are z/N(q), z = conj(q)·r over its residues r: the N(q) points of the ideal
    conj(q)Z[i] in [0, N(q))².  Distinct primes share only the origin (a split prime has no other
    center on an axis, a conjugate pair shares only points ≡ 0 mod p, an inert prime's centers have
    denominator p), so block j has sum N(q) - #primes + 1 centers and keeps every prime's box."""
    out = []
    for j in blocks:
        primes = list(_block_primes(alpha, j))
        halves = [half for _, _, half in primes]
        count = sum(n for _, n, _ in primes) - len(primes) + 1
        out.append(StageReport(j, count, 2 * min(halves), 2 * max(halves)))
    return out
