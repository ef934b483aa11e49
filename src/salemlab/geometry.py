"""Exact-rational interval and box unions with hyperspace predicates.

All set values are immutable after construction and every operation is a
pure function, so they are safe to share across threads.  Endpoints are
exact rationals throughout: the distance and containment questions asked
by the staged constructions reduce to endpoint comparisons, which we
therefore answer exactly.  Floating point appears only where a quantity is
genuinely irrational (box diagonals).  A union stores its endpoints only as
its integer view, `int_ends`: constructors check pieces on it, in one pass
over sorted input, and sort only input that is out of order.  Builders and
the hot readers (metric, partition, JSON) work on numerators; the
`Fraction` pieces are derived on first read.
"""

from __future__ import annotations

import itertools
import json
import math
import re
import sys
from bisect import bisect_right
from fractions import Fraction
from operator import itemgetter, le, lt
from typing import Iterable, Sequence, Union

RationalLike = Union[Fraction, int, str]
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)  # the exponent that `Fraction` reads

ZERO = Fraction(0)
ONE = Fraction(1)


def as_fraction(x: RationalLike) -> Fraction:
    """Coerce ints, 'p/q' strings (read by `_ratio`, with its exponent bound) and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(*_ratio(x))
    raise TypeError(f"not a rational: {x!r}")


def _ratio(x) -> tuple[int, int]:
    """(n, d) with x = n/d: a canonical "n/d" string (ASCII digits, d != 0) as two ints, any other x via Fraction;
    a string ending in an exponent e past the digit limit (its default if off) is refused: Fraction builds 10**|e|."""
    if isinstance(x, str):
        n, _, d = x.partition("/")
        m = n[1:] if n[:1] == "-" else n
        if m.isascii() and m.isdigit() and d.isascii() and d.isdigit() and d.strip("0"):
            return int(n), int(d)
        e, limit = _EXPONENT.search(x), sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
        if e and abs(int(e[1])) > limit:
            raise ValueError(f"decimal exponent {e[1]} beyond the digit limit {limit}")
    f = Fraction(x)
    return f.numerator, f.denominator


class GeometryError(ValueError):
    """Domain error raised by geometric operations."""


def check_printable(*ns: int) -> None:
    """Raise GeometryError if an int has more decimal digits than `sys.get_int_max_str_digits()`
    lets `str` print; decided by bit length, with a power of ten compared only near the limit."""
    limit = sys.get_int_max_str_digits()
    for n in ns:
        if limit and n.bit_length() * 0.30103 >= limit and abs(n) >= 10**limit:  # 0.30103 > log10(2)
            raise GeometryError(f"a {n.bit_length()}-bit integer has more than {limit} decimal digits, too many to print")


def format_fraction(x: Fraction) -> str:
    """x as "n/d"; GeometryError if a term is too long to print (see `check_printable`)."""
    return _format(x.numerator, x.denominator)


def format_ratio(n: int, d: int) -> str:
    """`format_fraction` of n/d (d > 0) without building the Fraction."""
    g = math.gcd(n, d)
    return _format(n // g, d // g)


def _format(n: int, d: int) -> str:
    try:
        return f"{n}/{d}"
    except ValueError:  # the interpreter's digit limit: check_printable raises its GeometryError
        check_printable(n, d)
        raise


def _common_numerators(D: int, *groups: Sequence[Fraction]) -> tuple:
    """E = lcm(D, every denominator), then each group's numerators over E."""
    E = math.lcm(D, *{q.denominator for qs in groups for q in qs})
    return (E, *([q.numerator * (E // q.denominator) for q in qs] for qs in groups))


def integer_ends(pieces: Iterable[Sequence]) -> tuple[int, list[int], list[int]]:
    """Common denominator D of the first two entries of each piece, and their numerators over D."""
    D, nums = _common_numerators(1, [e for p in pieces for e in p[:2]])
    return D, nums[0::2], nums[1::2]


def view_pieces(ints: tuple[int, list[int], list[int]], *columns: Iterable) -> tuple:
    """The pieces (l/D, r/D, *one entry per column) of an integer view, with Fraction ends."""
    D, lefts, rights = ints
    return tuple(zip([Fraction(l, D) for l in lefts], [Fraction(r, D) for r in rights], *columns))


class _Record:
    """Immutable value of the names in `__slots__`, read like a frozen dataclass: no attribute
    may be set or deleted, values are equal within one class and hashed as the tuple of their
    values, repr name=value, and copied, deep-copied and pickled by value."""

    __slots__ = ()

    def __init__(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{n}={v!r}' for n, v in zip(self.__slots__, self._values()))})"

    def __reduce__(self):
        return self.__class__, self._values()


class HausdorffDistance(_Record):
    """Distance between two compact unions.

    The lab's metric is exact, so `value` is a Fraction and `exact` is True;
    the flag stays part of the value.  Immutable; equal and hashed as the pair
    (value, exact).
    """

    __slots__ = ("value", "exact")

    def __init__(self, value: Union[Fraction, float], exact: bool = True) -> None:
        if value < 0:
            raise GeometryError("distance must be nonnegative")
        super().__init__(value, exact)

    def __float__(self) -> float:
        return float(self.value)


class IntervalUnion(_Record):
    """Finite union of closed intervals with exact rational endpoints.

    Pieces are kept pairwise disjoint and sorted; degenerate pieces [a, a]
    are allowed.  The ambient interval (`space`) is carried explicitly so
    that the empty set has a well-defined "far apart" distance surrogate.
    The endpoints are stored only as `int_ends`, the integer view: the lcm D
    of their reduced denominators and the left and right numerators over D.
    The view is canonical, so equal unions have equal views; `pieces`, the
    Fraction pairs, is derived from it on first read, and a copy or pickle
    carries only the view and `space`.
    """

    __slots__ = ("space", "int_ends", "_pieces")

    def __init__(
        self,
        pieces: Iterable[tuple[RationalLike, RationalLike]],
        space: tuple[RationalLike, RationalLike] = (ZERO, ONE),
    ) -> None:
        self._set(space, integer_ends([(as_fraction(a), as_fraction(b)) for a, b in pieces]))

    @classmethod
    def _of_ints(
        cls, D: int, lefts: list[int], rights: list[int], space: tuple[RationalLike, RationalLike] = (ZERO, ONE)
    ) -> "IntervalUnion":
        """The checked constructor on the pieces [l/D, r/D].

        Dividing by g = gcd(D, every numerator) leaves D the lcm of the reduced
        endpoint denominators, the union's integer view.
        """
        g = math.gcd(D, *lefts, *rights)
        if g > 1:
            D, lefts, rights = D // g, [l // g for l in lefts], [r // g for r in rights]
        U = cls.__new__(cls)
        U._set(space, (D, lefts, rights))
        return U

    def _set(self, space: tuple, ints: tuple[int, list[int], list[int]]) -> None:
        """Check the pieces on their numerators, sort them only if out of order, and store the view."""
        lo, hi = as_fraction(space[0]), as_fraction(space[1])
        if lo.numerator * hi.denominator >= hi.numerator * lo.denominator:  # lo >= hi, on ints
            raise GeometryError("space bound must be nondegenerate")
        D, lefts, rights = ints
        lon, hin = lo.numerator * D, hi.numerator * D  # l/D >= lo iff l * lo.denominator >= lon
        if not (
            all(map(le, lefts, rights))
            and (not lefts or (min(lefts) * lo.denominator >= lon and max(rights) * hi.denominator <= hin))
        ):
            for a, b in zip(lefts, rights):  # the first bad piece in input order
                if a > b:
                    raise GeometryError(f"interval [{Fraction(a, D)}, {Fraction(b, D)}] reversed")
                if a * lo.denominator < lon or b * hi.denominator > hin:
                    raise GeometryError(f"piece [{Fraction(a, D)}, {Fraction(b, D)}] outside space [{lo}, {hi}]")
        if not all(map(lt, rights, lefts[1:])):  # out of order or overlapping
            order = sorted(range(len(lefts)), key=lambda i: (lefts[i], rights[i]))
            ints = D, lefts, rights = D, [lefts[i] for i in order], [rights[i] for i in order]
            for a1, b1, a2 in zip(lefts, rights, lefts[1:]):
                if a2 <= b1:
                    a1, b1, a2 = Fraction(a1, D), Fraction(b1, D), Fraction(a2, D)
                    raise GeometryError(f"pieces [{a1},{b1}] and starting {a2} not disjoint")
        object.__setattr__(self, "space", (lo, hi))
        object.__setattr__(self, "int_ends", ints)

    @property
    def pieces(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """The pieces as sorted Fraction pairs, derived from `int_ends` on first read and kept."""
        if not hasattr(self, "_pieces"):
            object.__setattr__(self, "_pieces", view_pieces(self.int_ends))
        return self._pieces

    def __reduce__(self):
        return IntervalUnion._of_ints, (*self.int_ends, self.space)

    @classmethod
    def from_intervals(
        cls,
        intervals: Iterable[tuple[RationalLike, RationalLike]],
        space: tuple[RationalLike, RationalLike] = (ZERO, ONE),
    ) -> "IntervalUnion":
        """Build a union from possibly overlapping closed intervals.

        Touching closed intervals merge ([0,1/2] and [1/2,1] become [0,1]).
        Pieces are clamped to the ambient space.
        """
        lo, hi = as_fraction(space[0]), as_fraction(space[1])
        return cls._merged([integer_ends([(as_fraction(a), as_fraction(b)) for a, b in intervals])], (lo, hi))

    @classmethod
    def _merged(cls, views: list[tuple[int, list[int], list[int]]], space: tuple[Fraction, Fraction]) -> "IntervalUnion":
        """`from_intervals` on integer views: every view's pieces, clamped to space, sorted and merged."""
        lo, hi = space
        D = math.lcm(lo.denominator, hi.denominator, *(v[0] for v in views))
        lon, hin = lo.numerator * (D // lo.denominator), hi.numerator * (D // hi.denominator)
        clamped = []
        for d, lefts, rights in views:
            s = D // d
            clamped += [(max(l * s, lon), min(r * s, hin)) for l, r in zip(lefts, rights)]
        clamped.sort(key=itemgetter(0))  # equal left ends merge in any order
        ml: list[int] = []
        mr: list[int] = []
        for a, b in clamped:
            if a > b:
                continue
            if mr and a <= mr[-1]:
                if b > mr[-1]:
                    mr[-1] = b
            else:
                ml.append(a)
                mr.append(b)
        return cls._of_ints(D, ml, mr, space)

    @classmethod
    def empty(cls, space: tuple[RationalLike, RationalLike] = (ZERO, ONE)) -> "IntervalUnion":
        return cls([], space=space)

    @classmethod
    def full(cls, space: tuple[RationalLike, RationalLike] = (ZERO, ONE)) -> "IntervalUnion":
        return cls([space], space=space)

    # -- basic queries -----------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.int_ends[1]

    def __len__(self) -> int:
        return len(self.int_ends[1])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntervalUnion) and self.space == other.space and self.int_ends == other.int_ends

    def __hash__(self) -> int:
        return hash((self.space, self.int_ends[0], *map(tuple, self.int_ends[1:])))

    def __repr__(self) -> str:
        D, lefts, rights = self.int_ends
        inner = " u ".join(f"[{Fraction(l, D)},{Fraction(r, D)}]" for l, r in zip(lefts[:4], rights[:4]))
        if len(lefts) > 4:
            inner += f" ... ({len(lefts)} pieces)"
        return f"IntervalUnion({inner or 'empty'})"

    def contains_point(self, x: RationalLike) -> bool:
        return not self.is_empty and self.point_distance(x) == 0

    def subset_of(self, other: "IntervalUnion") -> bool:
        """Exact containment: the metric's walk from self to other is 0; the empty set lies in every union."""
        if self.is_empty or other.is_empty:
            return self.is_empty
        return _walk(*_rescaled(self, other)[:2]) == 0

    def point_distance(self, x: RationalLike) -> Fraction:
        """Exact d(x, self) from the pieces on either side of x; raises on the empty set."""
        if self.is_empty:
            raise GeometryError("distance to the empty set is undefined")
        fx = as_fraction(x)
        D, lefts, rights = self.int_ends
        q, X = fx.denominator, fx.numerator * D  # over D*q: x is X, an endpoint e is e*q
        i = bisect_right(lefts, X, key=lambda l: l * q)  # pieces[:i] start at or before x
        near = ([lefts[i] * q - X] if i < len(lefts) else []) + ([max(X - rights[i - 1] * q, 0)] if i else [])
        return Fraction(min(near), D * q)

    # -- transformations ---------------------------------------------------

    def intersect_interval(self, a: RationalLike, b: RationalLike) -> "IntervalUnion":
        fa, fb = as_fraction(a), as_fraction(b)
        out = []
        for pa, pb in self.pieces:
            qa, qb = max(pa, fa), min(pb, fb)
            if qa <= qb:
                out.append((qa, qb))
        return IntervalUnion(out, space=self.space)

    def map_onto(self, target: tuple[RationalLike, RationalLike]) -> "IntervalUnion":
        """Affine image of a union living in [0, 1] onto the target interval."""
        lo, hi = as_fraction(target[0]), as_fraction(target[1])
        space = (min(self.space[0], lo), max(self.space[1], hi))
        return IntervalUnion._of_ints(*self._mapped(hi - lo, lo), space)

    def affine(self, a: RationalLike, t: RationalLike) -> "IntervalUnion":
        """Image under x -> a*x + t (a != 0); the space is mapped alongside."""
        fa, ft = as_fraction(a), as_fraction(t)
        if fa == 0:
            raise GeometryError("affine scale must be nonzero")
        ends = sorted((fa * self.space[0] + ft, fa * self.space[1] + ft))
        M, ml, mr = self._mapped(fa, ft)
        if fa < 0:  # a reflection: each piece and their order reverse
            ml, mr = mr[::-1], ml[::-1]
        return IntervalUnion._of_ints(M, ml, mr, (ends[0], ends[1]))

    def _mapped(self, a: Fraction, t: Fraction) -> tuple[int, list[int], list[int]]:
        """Numerators of a*l + t and a*r + t over M = D * lcm(den a, den t), piece by piece."""
        D, lefts, rights = self.int_ends
        M = D * math.lcm(a.denominator, t.denominator)
        sa, st = a.numerator * (M // (D * a.denominator)), t.numerator * (M // t.denominator)
        return M, [sa * l + st for l in lefts], [sa * r + st for r in rights]

    # -- serialization -----------------------------------------------------

    def to_json(self) -> str:
        D, lefts, rights = self.int_ends
        return json.dumps(
            {
                "space": [format_fraction(self.space[0]), format_fraction(self.space[1])],
                "pieces": [[format_ratio(l, D), format_ratio(r, D)] for l, r in zip(lefts, rights)],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "IntervalUnion":
        """Inverse of `to_json`; a malformed document raises GeometryError."""
        try:
            obj = json.loads(text)
            ends = [(_ratio(a), _ratio(b)) for a, b in obj["pieces"]]
            lo, hi = obj["space"]
            space = (Fraction(*_ratio(lo)), Fraction(*_ratio(hi)))
        except (ValueError, TypeError, KeyError, ArithmeticError, RecursionError) as e:
            raise GeometryError(f"malformed interval-union JSON: {e!r}") from None
        D = math.lcm(*(d for piece in ends for _, d in piece))
        lefts, rights = [n * (D // d) for (n, d), _ in ends], [n * (D // d) for _, (n, d) in ends]
        return cls._of_ints(D, lefts, rights, space)


class BoxUnion(_Record):
    """Finite union of axis-aligned closed boxes with rational corners.

    Boxes are deduplicated and sorted.  A box contained in another is kept,
    and partial overlaps are tolerated (block constructions prune them
    where disjointness matters).
    """

    __slots__ = ("dimension", "pieces")

    def __init__(self, dimension: int, pieces: Iterable[Sequence[tuple[RationalLike, RationalLike]]]) -> None:
        if dimension < 1:
            raise GeometryError("dimension must be positive")
        norm = []
        for box in pieces:
            if len(box) != dimension:
                raise GeometryError("box arity does not match dimension")
            cube = []
            for a, b in box:
                fa, fb = as_fraction(a), as_fraction(b)
                if fa > fb:
                    raise GeometryError("box side reversed")
                cube.append((fa, fb))
            norm.append(tuple(cube))
        super().__init__(dimension, tuple(sorted(dict.fromkeys(norm))))

    @property
    def is_empty(self) -> bool:
        return not self.pieces

    def __len__(self) -> int:
        return len(self.pieces)

    def __repr__(self) -> str:
        return f"BoxUnion(d={self.dimension}, {len(self.pieces)} boxes)"


# ---------------------------------------------------------------------------
# metric and hyperspace predicates
# ---------------------------------------------------------------------------


def _rescaled(A: IntervalUnion, B: IntervalUnion) -> tuple[tuple, tuple, int]:
    """A's and B's (left, right) endpoint numerators over E = 2 lcm(D_A, D_B), and E: one rescale for both walks."""
    (Da, al, ar), (Db, bl, br) = A.int_ends, B.int_ends
    L = math.lcm(Da, Db)
    s, t = 2 * (L // Da), 2 * (L // Db)
    return ([a * s for a in al], [b * s for b in ar]), ([a * t for a in bl], [b * t for b in br]), 2 * L


def _walk(src: tuple[list[int], list[int]], dst: tuple[list[int], list[int]]) -> int:
    """sup_{x in src} d(x, dst) over the even scale E of `_rescaled`, for nonempty src and dst.

    d(., dst) is piecewise linear with breakpoints at dst endpoints and at midpoints of dst gaps,
    so its sup over src is attained at a src endpoint or a gap midpoint inside src.  Over the even
    scale E the midpoints are ints bounding the cells nearest each dst piece, and one forward merge
    walks a pointer k over them, O(n + m): in a src piece [a, b] only dl[k] - a and b - dr[k] at
    a's and b's nearest pieces k can exceed a midpoint's half gap.
    """
    (sl, sr), (dl, dr) = src, dst
    mids = [(b1 + a2) // 2 for b1, a2 in zip(dr, dl[1:])] + [sr[-1] + 1]  # the last bound stops k on dst's last piece
    best = k = 0
    for a, b in zip(sl, sr):
        while mids[k] < a:
            k += 1
        far = dl[k] - a
        while mids[k] <= b:
            if mids[k] - dr[k] > far:
                far = mids[k] - dr[k]
            k += 1
        if b - dr[k] > far:
            far = b - dr[k]
        if far > best:
            best = far
    return best


def one_sided_distance(src: IntervalUnion, dst: IntervalUnion) -> Fraction:
    """sup_{x in src} d(x, dst), exact; raises on an empty src or dst."""
    if src.is_empty or dst.is_empty:
        raise GeometryError("one-sided distance needs two nonempty unions")
    s, d, E = _rescaled(src, dst)
    return Fraction(_walk(s, d), E)


def hausdorff_metric(A: IntervalUnion, B: IntervalUnion) -> HausdorffDistance:
    """Exact Hausdorff distance between two unions sharing a space bound.

    Empty-set cases follow the three-way metric definition, with the
    diameter of the ambient space standing in for the infinite distance.
    One rescale to 2 lcm(D_A, D_B), then the walk in each direction; one Fraction is made.
    """
    if A.space != B.space:
        raise GeometryError("operands must share the same space bound")
    if A.is_empty and B.is_empty:
        return HausdorffDistance(ZERO)
    if A.is_empty or B.is_empty:
        return HausdorffDistance(A.space[1] - A.space[0])
    a, b, E = _rescaled(A, B)
    return HausdorffDistance(Fraction(max(_walk(a, b), _walk(b, a)), E))


def _sqrt_exact(x: Fraction) -> Union[Fraction, float]:
    n, d = x.numerator, x.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return math.sqrt(n / d)


def diameter(A: Union[IntervalUnion, BoxUnion]) -> Union[Fraction, float]:
    """Euclidean diameter of the union; 0 for the empty set.

    One-dimensional unions give an exact Fraction.  Box unions take the
    largest squared distance over the pairs of distinct box vertices and
    give its exact square root when it is rational (Pythagorean cases), a
    float otherwise.
    """
    if isinstance(A, IntervalUnion):
        if A.is_empty:
            return ZERO
        D, lefts, rights = A.int_ends
        return Fraction(rights[-1] - lefts[0], D)
    if A.is_empty:
        return ZERO
    vertices = list({v for box in A.pieces for v in itertools.product(*box)})
    best = ZERO
    for i in range(len(vertices)):
        for j in range(i + 1, len(vertices)):
            d2 = sum((u - v) ** 2 for u, v in zip(vertices[i], vertices[j]))
            if d2 > best:
                best = d2
    return _sqrt_exact(best)


def _open_cut(K: IntervalUnion, U: Iterable[tuple[RationalLike, RationalLike]]) -> IntervalUnion:
    """The closed union V in K's space with K in U iff K in V, and K meeting U iff K meeting V.

    Over E = 2 lcm(D_K, every denominator of U) each open (c, d) is cut to the closed [c + 1, d - 1]:
    every K endpoint strictly inside (c, d) lies in the cut, two open intervals overlap exactly when
    their cuts touch, and c >= d leaves an empty cut, which `_merged` drops with the rest."""
    L, ends = _common_numerators(K.int_ends[0], [as_fraction(e) for c, d in U for e in (c, d)])
    return IntervalUnion._merged([(2 * L, [2 * c + 1 for c in ends[0::2]], [2 * d - 1 for d in ends[1::2]])], K.space)


def subset_of_open(K: IntervalUnion, U: Iterable[tuple[RationalLike, RationalLike]]) -> bool:
    """Vietoris prebase predicate: K contained in the open union U."""
    return K.subset_of(_open_cut(K, U))


def intersects_open(K: IntervalUnion, U: Iterable[tuple[RationalLike, RationalLike]]) -> bool:
    """Vietoris prebase predicate: K meets the open union U."""
    return not disjoint_from_compact(K, _open_cut(K, U))


def disjoint_from_compact(F: IntervalUnion, K: IntervalUnion) -> bool:
    """Fell prebase predicate: the closed unions share no point.  Touching closed pieces share
    one, so the unions are disjoint exactly when merging both views joins no two pieces."""
    hull = (min(F.space[0], K.space[0]), max(F.space[1], K.space[1]))
    return len(IntervalUnion._merged([F.int_ends, K.int_ends], hull)) == len(F) + len(K)


def simplex_partition_1d(A: IntervalUnion, grid: RationalLike) -> list[IntervalUnion]:
    """Slice A along the closed grid cells [n*grid, (n+1)*grid].

    Consecutive outputs overlap in at most one point.  A cell whose intersection is already
    contained in the previous output (a shared boundary point) is skipped, so re-unioning the
    outputs gives back A exactly without redundant singleton cells.  One forward walk cuts the
    cells on numerators over E = lcm(D, den grid), each cell's pieces a slice of A's with only
    its two ends clamped, and jumps the cells meeting no piece: O(pieces + cells met).
    """
    g = as_fraction(grid)
    if g.numerator <= 0:
        raise GeometryError("grid step must be positive")
    if A.is_empty:
        return []
    D, lefts, rights = A.int_ends
    E = math.lcm(D, g.denominator)
    s, G = E // D, g.numerator * (E // g.denominator)  # cell n is [n*G, (n+1)*G] over E
    lefts, rights = [l * s for l in lefts], [r * s for r in rights]
    out: list[IntervalUnion] = []
    k, n = 0, lefts[0] // G - 1
    while k < len(lefts):
        # pieces[:k] are cut; cut the first cell after n meeting piece k (ending at lefts[k] if that is on the grid)
        n = max(n + 1, (lefts[k] - 1) // G)
        c0, c1 = n * G, (n + 1) * G
        j = k + 1
        while j < len(lefts) and lefts[j] <= c1:
            j += 1
        cl, cr = [max(lefts[k], c0), *lefts[k + 1:j]], [*rights[k:j - 1], min(rights[j - 1], c1)]
        # the previous output is the cell before's cut, which holds c0 if A does:
        # this cut lies in it exactly when it is the point c0
        if not (out and cl == cr == [c0]):
            out.append(IntervalUnion._of_ints(E, cl, cr, A.space))
        k = j - 1 if rights[j - 1] >= c1 else j  # piece j-1 may run on into the next cell
    return out
