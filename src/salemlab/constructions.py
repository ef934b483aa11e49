"""Stagewise fractal builders and reduction-map schemes.

Every scheme emits nested IntervalUnion stages together with per-stage
piece statistics.  Stage generation is deterministic; each scheme keeps
its stages, their reports, its tower blocks and its length schedule through
one memo, `_memo`, and each stage reads the earlier stages it needs from it.

The nested refinement used by the well-approximable-number schemes places
children at rational centers i/q with q drawn from dyadic prime blocks,
and calibrates child lengths so that the per-stage piece counts scale with
the declared dimension target.  Literal cumulative intersection of the
approximation blocks empties out after a few stages, and an uncalibrated
subselection reads a systematically wrong counting exponent, so the
calibrated refinement is what the stage ladder exposes to the estimators.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial
from typing import Callable, Iterable, NamedTuple, Sequence

from . import bitseq
from .bitseq import BitMatrix, BitSequence, ZERO_SEQ, phi_transform  # noqa: F401 (read by the CLI's phi map)
from .geometry import ONE, ZERO, BoxUnion, IntervalUnion, as_fraction
from .primes import next_prime, primes_in_range

class ConstructionError(ValueError):
    """Raised when a staged construction cannot proceed (empty stage, bad parameter)."""


class StageReport(NamedTuple):
    """Piece statistics of one stage: count and diameter range."""

    stage: int
    piece_count: int
    min_diam: Fraction
    max_diam: Fraction

    @classmethod
    def of(cls, stage: int, union: IntervalUnion) -> "StageReport":
        """Statistics of `union`, read from its integer view."""
        return cls._of_ends(stage, *union.int_ends)

    @classmethod
    def _of_ends(cls, stage: int, D: int, lefts: list[int], rights: list[int]) -> "StageReport":
        """Statistics of the pieces with endpoint numerators `lefts`, `rights` over D."""
        diams = [r - l for l, r in zip(lefts, rights) if r > l]
        if not diams:
            return cls(stage, len(lefts), Fraction(0), Fraction(0))
        return cls(stage, len(lefts), Fraction(min(diams), D), Fraction(max(diams), D))


DYADIC_EXPONENT_BOUND = 1 << 16


def _binary_exponent(base: float, exponent: float) -> float:
    """log2 of base**exponent (positive base).

    Raises ConstructionError when it is not within ±DYADIC_EXPONENT_BOUND:
    2^65536 has 19,729 digits, past what an integer prints with, and stages
    built on such a power do not finish.
    """
    e = exponent * math.log2(base)
    if not abs(e) < DYADIC_EXPONENT_BOUND:  # also a non-finite e
        raise ConstructionError(
            f"{base:g}**{exponent:.12g} is out of range: its binary exponent must stay within ±{DYADIC_EXPONENT_BOUND}"
        )
    return e


def _dyadic_pow(base: float, exponent: float) -> Fraction:
    """Dyadic rational approximation m * 2^k of base**exponent (positive base), m with 48 fraction
    bits, with `_binary_exponent`'s bound checked before any power is taken."""
    e = _binary_exponent(base, exponent)
    k = math.floor(e)
    frac = 2.0 ** (e - k)
    mant = Fraction(round(frac * (1 << 48)), 1 << 48)
    return mant * (Fraction(2) ** k)


def _power(n: int, exponent: float) -> Fraction:
    """n**exponent for an int n >= 2: exact when the exponent is integral, `_dyadic_pow` otherwise,
    with `_binary_exponent`'s bound checked before any power is taken in both cases."""
    if not float(exponent).is_integer():
        return _dyadic_pow(float(n), exponent)
    _binary_exponent(float(n), exponent)
    return Fraction(n) ** int(exponent)


def _memo(build: Callable) -> Callable:
    """A scheme's method f(k), k >= 0: f(k) is built once, by `build(self, k)`, and kept by k in
    the scheme's memo of that method, `_<f>_memo`, so `build` reads earlier values through f.
    Stages, stage reports, tower blocks and length schedules are all kept here."""
    name = build.__name__
    key = f"_{name}_memo"

    def memoised(self, k: int):
        memo = vars(self).setdefault(key, {})
        if k not in memo:
            if k < 0:
                raise ConstructionError(f"{name} must be nonnegative")
            memo[k] = build(self, k)
        return memo[k]

    memoised.__name__, memoised.__doc__ = name, build.__doc__
    return memoised


class Scheme:
    """Common scheme interface: nested stages plus fitting metadata."""

    name: str = "scheme"
    nested: bool = True
    declared_hdim: float | None = None
    declared_fdim: float | None = None

    def stage(self, k: int) -> IntervalUnion:
        raise NotImplementedError

    def report_of(self, k: int, union: IntervalUnion) -> StageReport:
        """Statistics of `union`, the already built stage k."""
        return StageReport.of(k, union)

    @_memo
    def report(self, k: int) -> StageReport:
        """The report of stage k, built once per scheme."""
        return self.report_of(k, self.stage(k))

    def reports(self, lo: int, hi: int) -> list[StageReport]:
        """Stage reports lo..hi."""
        return [self.report(k) for k in range(lo, hi + 1)]

    def decay_measure(self, k: int, natural=None):
        """Measure used for Fourier-decay readings at stage k: by default the
        natural measure of stage k, or `natural` if the caller already built it."""
        from . import measures

        return natural if natural is not None else measures.natural_measure(self.stage(k))

    def block_ladders(self, k: int) -> list[list[StageReport]] | None:
        """Per-block stage ladders for sup-rule dimension prediction.

        None for single-component schemes; block towers override.  Blocks
        live in pairwise almost-disjoint intervals, which is what licenses
        taking the sup of per-block fits.
        """
        return None


# ---------------------------------------------------------------------------
# self-similar Cantor schemes
# ---------------------------------------------------------------------------


def cantor_stage(n: int, k: int) -> IntervalUnion:
    """Stage k of the symmetric Cantor construction with dissection ratio 1/n.

    Each parent [a, b] spawns [a, a + (b-a)/n] and [b - (b-a)/n, b], so the
    stage holds 2^k intervals of length n^-k.
    """
    if n < 3:
        raise ConstructionError("dissection parameter must satisfy n >= 3")
    if k < 0:
        raise ConstructionError("stage must be nonnegative")
    lefts = [0]  # left endpoints times n^j at stage j
    for _ in range(k):
        lefts = [m for a in lefts for m in (n * a, n * a + n - 1)]
    return IntervalUnion._of_ints(n**k, lefts, [a + 1 for a in lefts])


class CantorScheme(Scheme):
    def __init__(self, n: int) -> None:
        if n < 3:
            raise ConstructionError("dissection parameter must satisfy n >= 3")
        self.n = n
        self.name = f"cantor:{n}"
        self.declared_hdim = math.log(2) / math.log(n)
        self.declared_fdim = 0.0

    @_memo
    def stage(self, k: int) -> IntervalUnion:
        return cantor_stage(self.n, k)

    def decay_measure(self, k: int, natural=None):
        from . import measures

        return measures.SelfSimilarProductMeasure(
            branching=2,
            offsets=((Fraction(0), Fraction(self.n - 1, self.n)),),
            contractions=(Fraction(1, self.n),),
        )


def _dimension_schedule(p: float, k: int) -> Fraction:
    """2^(-k/p), the length schedule of `GeneralizedCantorScheme.for_dimension(p)`; a module function pickles."""
    return _dyadic_pow(2.0, -k / p)


class GeneralizedCantorScheme(Scheme):
    """Binary-branching Cantor set with a per-stage length schedule.

    `lengths(k)` gives the piece length at stage k (lengths(0) == 1); the
    schedule is clamped so children always fit inside their parent.
    """

    def __init__(self, lengths: Callable[[int], Fraction], name: str = "gcantor") -> None:
        self.name = name
        self._sched = lengths

    @classmethod
    def for_dimension(cls, p: float) -> "GeneralizedCantorScheme":
        """Length schedule 2^(-k/p): counting dimension p, binary branching."""
        if not 0 < p <= 1:
            raise ConstructionError("dimension target must be in (0, 1]")
        s = cls(partial(_dimension_schedule, p), name=f"gcantor:{p:g}")
        s.declared_hdim = p
        s.declared_fdim = 0.0
        return s

    @_memo
    def length(self, j: int) -> Fraction:
        """The piece length at stage j: the schedule, clamped to half the length at stage j - 1."""
        return min(self._sched(j), self.length(j - 1) / 2) if j else Fraction(1)

    @_memo
    def stage(self, k: int) -> IntervalUnion:
        """A parent [a, a + P] spawns the left ends a and a + P - L, over E = lcm(D, den L)."""
        D, lefts = 1, [0]
        for j in range(1, k + 1):
            E = math.lcm(D, self.length(j).denominator)
            s, step = E // D, int((self.length(j - 1) - self.length(j)) * E)
            D, lefts = E, [m for a in lefts for m in (a * s, a * s + step)]
        L = int(self.length(k) * D)
        return IntervalUnion._merged([(D, lefts, [a + L for a in lefts])], (ZERO, ONE))

    def decay_measure(self, k: int, natural=None):
        from . import measures

        contractions = tuple(self.length(j) / self.length(j - 1) for j in range(1, max(k, 24) + 1))
        offsets = tuple((Fraction(0), 1 - c) for c in contractions)
        return measures.SelfSimilarProductMeasure(
            branching=2, offsets=offsets, contractions=contractions
        )


class IntervalScheme(Scheme):
    """The ambient interval, reported through dyadic grid covers.

    The stage set is constantly [0, 1]; the stage-k report counts the 2^k
    closed dyadic cells produced by the grid partition, which is the box
    count of the interval at scale 2^-k.
    """

    name = "interval"
    declared_hdim = 1.0
    declared_fdim = 1.0

    @_memo
    def stage(self, k: int) -> IntervalUnion:
        return self.stage(0) if k else IntervalUnion.full()  # one union, shared: it is immutable

    def report_of(self, k: int, union: IntervalUnion) -> StageReport:
        cell = Fraction(1, 1 << k)
        return StageReport(k, 1 << k, cell, cell)


# ---------------------------------------------------------------------------
# well-approximable-number blocks
# ---------------------------------------------------------------------------


def _radius(q: int, alpha: float) -> Fraction:
    """q^-(2+alpha) as an exact Fraction when alpha is integral, dyadic otherwise (`_power`)."""
    return _power(q, -(2.0 + alpha))


def jarnik_stage(alpha: float, j: int) -> IntervalUnion:
    """Block j of the well-approximable construction.

    Union over primes q in [2^j, 2^(j+1)) and residues p in {0..q} of the
    closed intervals [p/q - q^-(2+alpha), p/q + q^-(2+alpha)], clamped to
    [0, 1] and merged where they overlap.
    """
    if alpha < 0:
        raise ConstructionError("alpha must be nonnegative")
    if j < 1:
        raise ConstructionError("block index must be >= 1")
    primes = primes_in_range(2**j, 2 ** (j + 1))
    assert primes, "dyadic prime block is never empty for j >= 1"
    views = []
    for q in primes:
        r = _radius(q, alpha)
        rn, rd = r.numerator * q, r.denominator  # [p/q - r, p/q + r] over q * rd
        views.append((q * rd, [p * rd - rn for p in range(q + 1)], [p * rd + rn for p in range(q + 1)]))
    return IntervalUnion._merged(views, (ZERO, ONE))


class JarnikScheme(Scheme):
    """Block family indexed by the dyadic prime-block exponent.

    Blocks are not nested in the block index; the counting fit across
    blocks is the dimension reading for this scheme.
    """

    nested = False

    def __init__(self, alpha: float) -> None:
        if alpha < 0:
            raise ConstructionError("alpha must be nonnegative")
        self.alpha = alpha
        self.name = f"jarnik:{alpha:g}"
        self.declared_hdim = 2.0 / (2.0 + alpha)
        self.declared_fdim = 2.0 / (2.0 + alpha)

    @_memo
    def stage(self, j: int) -> IntervalUnion:
        if j == 0:
            return IntervalUnion.full()
        return jarnik_stage(self.alpha, j)


# ---------------------------------------------------------------------------
# calibrated nested approximation scheme
# ---------------------------------------------------------------------------


PRIME_BITS_BOUND = 3072  # next_prime takes about 5 s from 2^3072 and 22 s from 2^4096


class SAlphaScheme(Scheme):
    """Nested refinement through prime-block rational centers.

    Stage k+1 places `branching` children inside every stage-k piece,
    centered at lattice points i/q for a prime q from the smallest dyadic
    block that resolves the current piece length.  Child lengths follow the
    calibrated schedule L * branching^(-1/p) with p = 2/(2+alpha), so the
    stage ladder counts at exponent p while every piece stays populated
    (the refinement property the nesting arguments rely on).
    """

    def __init__(self, alpha: float, branching: int = 3) -> None:
        if alpha < 0:
            raise ConstructionError("alpha must be nonnegative")
        if branching < 2:
            raise ConstructionError("branching must be >= 2")
        self.alpha = alpha
        self.branching = branching
        self.p = 2.0 / (2.0 + alpha)
        self.name = f"salpha:{alpha:g}"
        self.declared_hdim = self.p
        ratio = _dyadic_pow(float(branching), -1.0 / self.p)
        cap = Fraction(1, branching) * Fraction(63, 64)
        self._ratio = min(ratio, cap)
        self._primes: dict[int, int] = {0: 0}  # the prime of each built stage

    def _refine(self, parent: IntervalUnion, ell: Fraction) -> tuple[IntervalUnion, int]:
        """Children of every parent piece, centred at i/q with i the round-half-even
        of target*q clamped to the piece, on numerators over E = lcm(D, den(ell/2))."""
        G = self.branching
        D, lefts, rights = parent.int_ends
        parent_len = Fraction(rights[0] - lefts[0], D)
        slack = (parent_len - G * ell) / (G + 1)
        fine = min(ell, slack if slack > 0 else ell) / (8 * G)
        jbits = max(1, (math.ceil(1 / fine) - 1).bit_length())
        if jbits > PRIME_BITS_BOUND:
            raise ConstructionError(f"the centre prime needs {jbits} bits, above the bound of {PRIME_BITS_BOUND}")
        q = next_prime(2**jbits)
        half = ell / 2
        E = math.lcm(D, half.denominator)
        s, H = E // D, half.numerator * (E // half.denominator)
        M = E * (G - 1)  # target = lo + span*i/(G-1), so target*q = N/M with N an int
        F = math.lcm(E, q)  # children [idx/q - half, idx/q + half] over F
        fq, fH = F // q, H * (F // E)
        out_l: list[int] = []
        out_r: list[int] = []
        for a, b in zip(lefts, rights):
            lo, hi = a * s + H, b * s - H
            lo_idx, hi_idx = -(-lo * q // E), hi * q // E
            for i in range(G):
                n, rem = divmod(q * (lo * (G - 1) + (hi - lo) * i), M)
                if 2 * rem > M or (2 * rem == M and n % 2):
                    n += 1
                c = min(max(n, lo_idx), hi_idx) * fq
                out_l.append(c - fH)
                out_r.append(c + fH)
        return IntervalUnion._of_ints(F, out_l, out_r), q

    @_memo
    def stage(self, k: int) -> IntervalUnion:
        """Stage k - 1 refined at the child length ratio^k."""
        if k == 0:
            return IntervalUnion.full()
        union, q = self._refine(self.stage(k - 1), self._ratio**k)
        if union.is_empty:
            raise ConstructionError("refinement produced an empty stage")
        self._primes[k] = q
        return union

    def stage_prime(self, k: int) -> int:
        self.stage(k)
        return self._primes[k]


# ---------------------------------------------------------------------------
# the dimension-control map on binary sequences
# ---------------------------------------------------------------------------


def shrink_cap(k: int, piece_count: int) -> Fraction:
    """Exact child-length cap (2^-k / N)^(2^k) used at a 1-bit of stage k."""
    return (Fraction(1, 2**k) / piece_count) ** (2**k)


def shrink_bound_holds(diams: Sequence[Fraction], k: int) -> bool:
    """Exact check of sum(diam^(2^-k)) <= 2^-k over the stage-(k+1) pieces.

    Raising both sides of diam^(2^-k) <= 2^-k / N to the 2^k power turns the
    irrational-exponent comparison into a rational one, so the bound is
    verified without floating point.
    """
    n = len(diams)
    cap = shrink_cap(k, n)
    return all(d <= cap for d in diams)


class FpScheme(Scheme):
    """Stage family of the sequence-controlled construction.

    A 1-bit at position k+1 replaces each piece by a centered subinterval
    whose length is capped by `shrink_cap`; a 0-bit advances the scaled
    nested approximation scheme inside the pieces of the last reset.  With
    the all-zero sequence the stages coincide with the plain scheme.
    """

    def __init__(
        self,
        p: float,
        x: BitSequence,
        branching: int = 3,
    ) -> None:
        if not 0 < p <= 1:
            raise ConstructionError("dimension parameter must lie in (0, 1]")
        self.p = p
        self.x = x
        self.alpha = 2.0 / p - 2.0
        self.branching = branching
        self.name = f"fp:{p:g}:x={x}"
        self.declared_hdim = p if x.is_eventually_zero else 0.0
        self.declared_fdim = self.declared_hdim
        self._sal = SAlphaScheme(self.alpha, branching)

    @_memo
    def stage(self, k: int) -> IntervalUnion:
        """A 1-bit at k shrinks stage k - 1; a 0-bit maps S_alpha stage k - r onto stage r, the
        last reset (the last j < k with a 1-bit, else 0)."""
        if k == 0:
            return IntervalUnion.full()
        if self.x.bit(k) == 1:
            cur = self.stage(k - 1)
            cap = shrink_cap(k - 1, len(cur))
            D, lefts, rights = cur.int_ends
            L = math.lcm(D, cap.denominator)
            u, c = L // D, cap.numerator * (L // cap.denominator)
            pairs = [(a * u, b * u) for a, b in zip(lefts, rights)]
            # over 2L: a piece no longer than the cap stays, a longer one keeps its centre a + b
            ends = [(2 * a, 2 * b) if b - a <= c else (a + b - c, a + b + c) for a, b in pairs]
            return IntervalUnion._of_ints(2 * L, [a for a, _ in ends], [b for _, b in ends])
        r = next((j for j in range(k - 1, 0, -1) if self.x.bit(j) == 1), 0)
        base, unit = self.stage(r), self._sal.stage(k - r)
        if base == IntervalUnion.full():
            return unit
        # the unit's x/Du onto the base piece [A, B]/Db: (A*Du + x*(B - A)) / (Db*Du)
        Db, bl, br = base.int_ends
        Du, ul, ur = unit.int_ends
        return IntervalUnion._of_ints(
            Db * Du,
            [A * Du + x * (B - A) for A, B in zip(bl, br) for x in ul],
            [A * Du + x * (B - A) for A, B in zip(bl, br) for x in ur],
        )

    def shrink_events(self, k: int) -> list[tuple[int, int, Fraction]]:
        """(stage, piece count, cap) for every 1-bit processed up to stage k."""
        sizes = ((s, len(self.stage(s))) for s in range(k) if self.x.bit(s + 1) == 1)
        return [(s, n, shrink_cap(s, n)) for s, n in sizes]


# ---------------------------------------------------------------------------
# dyadic block towers
# ---------------------------------------------------------------------------


def block_interval(m: int) -> tuple[Fraction, Fraction]:
    """T_m = [2^-(m+1), 2^-m]."""
    return (Fraction(1, 2 ** (m + 1)), Fraction(1, 2**m))


def _declare(scheme: Scheme, blocks: Iterable[Scheme | None], limit: float) -> None:
    """Set a tower's declarations from its blocks (None for an empty block) and `limit`, the sup
    over the blocks not listed.  dim_H of a countable union is the sup of the parts' (countable
    stability); dim_F of a union is at least the sup of the parts' (monotonicity, Mattila 2015)."""
    parts = [blk for blk in blocks if blk is not None]
    scheme.declared_hdim = max([limit, *(blk.declared_hdim for blk in parts)])
    scheme.declared_fdim = max([limit, *(blk.declared_fdim for blk in parts)])


def _tower(tail: tuple[int, list[int], list[int]], blocks: Iterable[IntervalUnion]) -> IntervalUnion:
    """The tail piece at 0 (an integer view), then the blocks from the one nearest 0: the pieces
    arrive in order and merge on the blocks' integer views."""
    return IntervalUnion._merged([tail, *(U.int_ends for U in blocks)], (ZERO, ONE))


class BlockTower(Scheme):
    """Block m in T_m for m = k..0 at stage k, above the closed tail
    [0, 2^-(k+1)]: the tail holds the accumulation point and the blocks not
    yet started, which keeps the stages nested as new blocks appear.  Every
    block past max_row + 1 reads the tail row, hence `_declare`'s limit."""

    kind: str
    branching: int  # of every sequence-controlled block

    def __init__(self, p: float, x: BitMatrix) -> None:
        if not 0 < p <= 1:
            raise ConstructionError("dimension parameter must lie in (0, 1]")
        self.p = p
        self.x = x
        self.name = f"{self.kind}:{p:g}"
        _declare(self, map(self.block, range(x.max_row + 2)), p if x.tail.is_eventually_zero else 0.0)

    def q_m(self, m: int) -> float:
        """Dimension target p(1 - 2^-m) of block m, kept below p where the float rounds to p (m >= 54)."""
        return min(self.p * (1.0 - 2.0**-m), math.nextafter(self.p, 0.0))

    def block(self, m: int) -> Scheme | None:
        """The construction run in T_m, or None for an empty block."""
        raise NotImplementedError

    def block_union(self, m: int, k: int) -> IntervalUnion:
        blk = self.block(m)
        if blk is None:
            return IntervalUnion.empty()
        return blk.stage(k).map_onto(block_interval(m))

    @_memo
    def stage(self, k: int) -> IntervalUnion:
        return _tower((2 ** (k + 1), [0], [1]), (self.block_union(m, k) for m in range(k, -1, -1)))

    def report_of(self, k: int, union: IntervalUnion) -> StageReport:
        """Stage statistics with the accumulation tail excluded.

        The leading piece anchored at 0 is the placeholder for the blocks not
        yet built; its width tracks the block grid, not the fractal ladder, so
        it would corrupt the diameter statistics the count fits regress on.
        """
        D, lefts, rights = union.int_ends
        i = 1 if lefts and lefts[0] == 0 else 0  # in [0, 1] only the first piece can start at 0
        return StageReport._of_ends(k, D, lefts[i:], rights[i:])

    def block_ladders(self, k: int) -> list[list[StageReport]]:
        return [blk.reports(1, k) for blk in map(self.block, range(k + 1)) if blk is not None]


class Pi03Scheme(BlockTower):
    """Tower of sequence-controlled blocks accumulating at 0.

    Block m lives in T_m and runs the stage-k construction for row m at
    dimension target p(1 - 2^-m).
    """

    kind = "pi03"
    branching = 3

    @_memo
    def block(self, m: int) -> FpScheme | None:
        return FpScheme(self.q_m(m), self.x.row(m), self.branching) if m else None  # block 0 has target 0


class SalemGapScheme(BlockTower):
    """Block tower whose head block pins the Hausdorff dimension at p.

    T_0 carries a Cantor-type set of counting dimension p (vanishing
    Fourier decay); T_n for n >= 1 carries the stage construction for row
    n-1 of phi(x), the cumulative row max, at dimension target
    q_n = p(1 - 2^-n).  Under phi the first row m of x that is not
    eventually zero makes every later block bad, so the set declares
    dim_F = dim_H = p exactly when every row is eventually zero, and
    otherwise dim_F >= q_m (q_0 = 0), the lower end monotonicity certifies.
    """

    kind = "salemgap"
    # binary branching throughout: the head block is binary by design,
    # and a uniform count rate across blocks keeps the union ladder
    # readable (count and diameter then track the same dominant block)
    branching = 2

    def __init__(self, p: float, x: BitMatrix) -> None:
        log23 = math.log(2) / math.log(3)  # the middle-third head's dimension: a p within 1e-9 of it reads as it
        super().__init__(log23 if abs(p - log23) < 1e-9 else p, bitseq.phi_transform(x))

    @_memo
    def block(self, n: int) -> Scheme:
        if n:
            return FpScheme(self.q_m(n), self.x.row(n - 1), self.branching)
        # the head: the middle-third set at its own dimension, else the binary set of counting dimension p
        return CantorScheme(3) if self.p == math.log(2) / math.log(3) else GeneralizedCantorScheme.for_dimension(self.p)


# ---------------------------------------------------------------------------
# encoding of sequence families through block dimensions
# ---------------------------------------------------------------------------


def weihrauch_dimension_target(flags: Sequence[bool]) -> float:
    """sum of 2^-i over the 1-indexed positions whose sequence is eventually zero."""
    return float(sum(Fraction(1, 2**i) for i, ok in enumerate(flags, start=1) if ok))


class WeihrauchScheme(Scheme):
    """Encodes a finite sequence family into one closed set.

    Block k carries the construction at dimension p_k = sum(2^-i, i in F_k)
    driven by y_k, the pointwise max of the sequences indexed by F_k, so
    the encoded dimension reads the weight of the eventually-zero part of
    the family.  The F_k are the nonempty subsets of {1..n} in binary
    counting order; indices start at 1 so that every weight sum stays within
    (0, 1] and the encoded set fits in one dimension.  The singleton {0}
    closes the block tower.
    """

    def __init__(self, xs: Sequence[BitSequence]) -> None:
        self.xs = tuple(xs)
        n = len(self.xs)
        self.index_sets = [frozenset(i + 1 for i in range(n) if code >> i & 1) for code in range(1, 2**n)]
        self.name = f"weihrauch:n={n}"
        self._blocks: list[FpScheme] = []
        for f in self.index_sets:
            y = ZERO_SEQ
            for i in f:
                y = y | self.xs[i - 1]
            self._blocks.append(FpScheme(float(sum(Fraction(1, 2**i) for i in f)), y))
        _declare(self, self._blocks, 0.0)  # the largest good block is F_k = the eventually-zero sequences

    def block_union(self, k: int, depth: int) -> IntervalUnion:
        return self._blocks[k].stage(depth).map_onto(block_interval(k))

    @_memo
    def stage(self, depth: int) -> IntervalUnion:
        blocks = (self.block_union(k, depth) for k in range(len(self._blocks) - 1, -1, -1))
        return _tower((1, [0], [0]), blocks)


# ---------------------------------------------------------------------------
# radial lift
# ---------------------------------------------------------------------------


def _radial_quadrant(A: IntervalUnion, resolution) -> tuple[Fraction, list[list[int]]]:
    """The cell side res and, for each m in 0..ceil(1/res)-1, the ascending m' whose cell
    [m res, (m+1) res] x [m' res, (m'+1) res] meets {x : |x| in A}.

    Columns i and -1-i of the grid on [-n res, n res]² span the same squared coordinates
    res²·[m², (m+1)²], m = max(i, -1-i), so this quadrant decides every cell.  A cell spans the
    squared norms res²·[L, H], so it meets the radius piece [a, b] (clipped to [0, inf)) iff
    L <= floor(b²/res²) and H >= ceil(a²/res²).  The first piece with L <= floor(b²/res²)
    decides; along a row L grows, so that piece only moves forward.
    """
    res = as_fraction(resolution)
    if res <= 0:
        raise ConstructionError("resolution must be positive")
    D, lefts, rights = A.int_ends
    den = (D * res.numerator) ** 2  # e²/res² = (n * den res)² / den for an endpoint e = n/D
    kept = [(max(l, 0) * res.denominator, r * res.denominator) for l, r in zip(lefts, rights) if r >= 0]
    floors = [b * b // den for _, b in kept] + [math.inf]  # past the last floor no piece is met
    ceils = [-(a * a // -den) for a, _ in kept]
    n = math.ceil(1 / res)
    sq = [m * m for m in range(n + 1)]
    rows = []
    for lx, hx in zip(sq, sq[1:]):
        row, k = [], 0
        for m in range(n):
            while floors[k] < lx + sq[m]:
                k += 1
            if k == len(ceils):
                break
            if hx + sq[m + 1] >= ceils[k]:
                row.append(m)
        rows.append(row)
    return res, rows


def radial_lift(A: IntervalUnion, resolution=Fraction(1, 16)) -> BoxUnion:
    """Grid-box cover of {x in R² : |x| in A} at the given cell side: `_radial_quadrant` reflected."""
    res, rows = _radial_quadrant(A, resolution)
    n = len(rows)
    side = [(i * res, (i + 1) * res) for i in range(-n, n)]  # column i is side[n + i]
    # column i holds the row m = max(i, -1-i) of the quadrant: j = -1-m for m descending, then j = m
    return BoxUnion(2, [(side[n + i], side[n + j]) for i in range(-n, n) for row in [rows[max(i, -1 - i)]]
                        for j in [-1 - m for m in reversed(row)] + row])


def radial_reports(A: IntervalUnion, exponents: Iterable[int]) -> list[StageReport]:
    """Box-cover counts of the radial lift at cell sides 2^-j: four times the quadrant's cells.

    The reported scale is the cell side (the diagonal differs by a constant
    factor, which a log-log slope does not see).
    """
    out = []
    for j in exponents:
        res = Fraction(1, 2**j)
        out.append(StageReport(j, 4 * sum(map(len, _radial_quadrant(A, res)[1])), res, res))
    return out
