"""Probability measures with closed-form Fourier transforms.

Geometry stays rational, weights are floats; a piecewise-uniform measure
stores its endpoints only as its integer view, `int_ends` (taken from the
union by `natural_measure`), which every mass, float view and transform
reads; its Fraction `pieces` are derived on first read.  A piecewise-uniform
measure has one transform formula, the vector kernel with its fixed
accumulation order: a scalar call loads numpy and gives that kernel's float
at one frequency.  The product measure's vector sweep gives the floats of
its scalar product, modulus by hypot.  Of the CLI's commands only `report`
and `sweep` load this module; numpy loads in the vector sweeps, piecewise
transforms and the Frostman sup only, so single ball masses and product
scalar transforms skip it.
"""

from __future__ import annotations

import bisect
import cmath
import math
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from operator import le
from typing import TYPE_CHECKING, Iterable, Sequence

from .geometry import IntervalUnion, _common_numerators, as_fraction, integer_ends, view_pieces

if TYPE_CHECKING:
    import numpy as np

_TWO_PI = 2.0 * math.pi


class MeasureError(ValueError):
    pass


class PiecewiseUniformMeasure:
    """Mixture of uniform densities on disjoint intervals plus point masses.

    A degenerate piece [a, a] carries its weight as an atom at a.  Pieces
    may meet only at endpoints: an atom may sit on an interval's end, not inside.
    """

    def __init__(self, pieces: Iterable[tuple[Fraction, Fraction, float]]) -> None:
        norm = [(as_fraction(a), as_fraction(b), w) for a, b, w in pieces]
        self._set(integer_ends(norm), [w for _, _, w in norm])

    def _set(self, ints: tuple[int, list[int], list[int]], weights: list) -> None:
        """Check the pieces on their numerators, sort them only if out of order, and store the view and weights."""
        D, lefts, rights = ints
        if not (all(map(le, lefts, rights)) and all(w > 0 for w in weights)):
            for l, r, w in zip(lefts, rights, weights):  # the first bad piece in input order
                if l > r:
                    raise MeasureError("reversed support interval")
                if w <= 0:
                    raise MeasureError("weights must be positive")
        weights = [float(w) for w in weights]
        if not all(map(le, rights, lefts[1:])):  # out of order or overlapping
            order = sorted(range(len(weights)), key=lambda i: (lefts[i], rights[i]))
            weights = [weights[i] for i in order]
            ints = D, lefts, rights = D, [lefts[i] for i in order], [rights[i] for i in order]
            for l1, r1, l2, r2 in zip(lefts, rights, lefts[1:], rights[1:]):
                if l2 < r1:
                    a1, b1, a2, b2 = (Fraction(e, D) for e in (l1, r1, l2, r2))
                    raise MeasureError(f"support pieces [{a1}, {b1}] and [{a2}, {b2}] overlap")
        total = math.fsum(weights)
        if abs(total - 1.0) > 1e-12:
            raise MeasureError(f"weights sum to {total}, not 1")
        self.int_ends = ints  # common denominator D and the endpoint numerators over D
        self.weights = weights
        self._cumw = [0.0, *accumulate(weights)]

    @cached_property
    def pieces(self) -> tuple[tuple[Fraction, Fraction, float], ...]:
        """The pieces (a, b, w) with Fraction ends, derived from `int_ends` on first read."""
        return view_pieces(self.int_ends, self.weights)

    @cached_property
    def _arrays(self) -> tuple["np.ndarray", "np.ndarray", "np.ndarray", "np.ndarray"]:
        """Centers, the distinct (half-length, weight) pairs and each piece's pair index.

        Stage measures repeat few pairs over many pieces, so sinc runs per pair.
        """
        import numpy as np

        D, lefts, rights = self.int_ends
        D2 = 2 * D  # int true division rounds correctly: the floats of (b - a)/2 and (a + b)/2
        pairs = [((r - l) / D2, w) for l, r, w in zip(lefts, rights, self.weights)]
        index = {p: k for k, p in enumerate(dict.fromkeys(pairs))}
        return (
            np.array([(l + r) / D2 for l, r in zip(lefts, rights)]),
            np.array([h for h, _ in index]),
            np.array([w for _, w in index]),
            np.array([index[p] for p in pairs]),
        )

    @cached_property
    def _chunks(self) -> tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
        """Centres in turns (c / 2pi), pieces grouped by pair, and the first piece and
        pair of each chunk: a pair's run cut at the multiples of 256."""
        import numpy as np

        centers, _, _, index = self._arrays
        order = np.argsort(index, kind="stable")
        pair = index[order]
        starts = np.flatnonzero((np.diff(pair, prepend=-1) != 0) | (np.arange(len(pair)) % 256 == 0))
        return centers[order] / _TWO_PI, starts, pair[starts]

    def __repr__(self) -> str:
        return f"PiecewiseUniformMeasure({len(self.weights)} pieces)"

    # -- transform ----------------------------------------------------------

    def fourier_eval(self, xi: float) -> complex:
        """`fourier_eval_many` at one frequency: w e^(-i xi c) sinc(xi h) summed over the pieces."""
        return complex(self.fourier_eval_many([xi])[0])

    def fourier_modulus(self, xi: float) -> float:
        return float(self.fourier_modulus_many([xi])[0])

    def fourier_eval_many(self, xis: "np.ndarray") -> "np.ndarray":
        """Vectorized transform values with a fixed accumulation order.

        Each row sums w * sinc(xi h) * e^(-i xi c) over 512-piece blocks as (ws cos, -(ws sin)),
        the floats of numpy's complex exp and product without their cost; 128 rows at a time bound
        the buffers, one flat set per call, whose leading entries are each block's contiguous views.
        """
        import numpy as np

        centers, halves, weights, index = self._arrays
        xis = np.asarray(xis, dtype=float)
        out = np.zeros(len(xis), dtype=complex)
        size = min(128, len(xis)) * min(512, len(centers))
        bufs = [*np.empty((3, size)), np.empty(size, dtype=complex)]  # phase, gathered envelope, trig, term
        for r in range(0, len(xis), 128):
            x = xis[r:r + 128, None]
            envelope = weights * np.sinc(x * halves / np.pi)
            for start in range(0, len(centers), 512):
                sl = slice(start, start + 512)
                arg, ws, trig, term = (b[:len(x) * len(index[sl])].reshape(len(x), -1) for b in bufs)
                np.multiply(x, centers[sl], out=arg)
                np.take(envelope, index[sl], axis=1, out=ws, mode="clip")  # in range; "raise" would copy out
                np.multiply(ws, np.cos(arg, out=trig), out=term.real)
                np.negative(np.multiply(ws, np.sin(arg, out=trig), out=term.imag), out=term.imag)
                out[r:r + 128] += term.sum(axis=1)
        return out

    def fourier_modulus_many(self, xis: "np.ndarray") -> "np.ndarray":
        return self.fourier_screen(xis)[0] if len(self.weights) == 1 else abs(self.fourier_eval_many(xis))

    def fourier_screen(self, xis: "np.ndarray") -> tuple["np.ndarray", "np.ndarray"]:
        """Approximate |mu^(xi)| and a slack bounding its distance from
        `fourier_modulus_many(xi)`; one piece gives that modulus, slack 0.

        Each chunk sums float32 cos and sin, times its pair's float64 envelope
        w sinc(xi h).  Slack (e = 2^-52, u = 2^-24, n pieces, weights sum to 1),
        as complex errors.  Kernel phase fl(xi c): e/2 |xi c|, libm 4 ulp.  Screen
        phase 2 pi p, p = fl(xi fl(c / fl(2 pi))): 2e |xi c|; p - rint(p) exact;
        float32 cast and times float32(2 pi): 3 pi u; float32 cos/sin: 8 ulp <=
        2^-20 each; sums of m <= 256 of them: 255 u m.  Float64 products and sums:
        e (n + 9) per component.  So 255 u + sqrt 2 2^-20 + 3 pi u < 2^-16 + 2^-18
        - 2^-20, plus 2.5 e |xi| max|c|, sqrt 2 e (n + 9) and 2e (hypot, abs):
        under 2^-16 + 2^-18 + e (16 |xi| max|c| + 2n).
        """
        import numpy as np

        xis = np.asarray(xis, dtype=float)
        if len(self.weights) == 1:  # the phase is unimodular: w |sinc| is the modulus
            D, (l,), (r,) = self.int_ends
            return self.weights[0] * np.abs(np.sinc(xis * ((r - l) / (2 * D)) / np.pi)), np.zeros(len(xis))
        centers, halves, weights, _ = self._arrays
        turns, starts, pair = self._chunks
        rows = max(1, 2**15 // len(turns))
        envelope = (weights * np.sinc(xis[:, None] * halves / np.pi))[:, pair]
        # one set of buffers per call; a short last block uses their leading rows
        p, near = np.empty((2, min(rows, len(xis)), len(turns)))
        t, trig = np.empty((2, *p.shape), dtype=np.float32)
        sums, terms = np.empty((len(p), len(pair)), dtype=np.float32), np.empty((len(p), len(pair)))
        out = np.empty(len(xis))
        for r in range(0, len(xis), rows):
            x = xis[r:r + rows]
            m, env = len(x), envelope[r:r + rows]
            np.einsum("i,j->ij", x, turns, out=p[:m])  # the outer product, faster than broadcasting
            np.subtract(p[:m], np.rint(p[:m], out=near[:m]), out=p[:m])
            np.multiply(p[:m], np.float32(_TWO_PI), out=t[:m], dtype=np.float32)  # cast, then times float32(2 pi)
            parts = []
            for f in (np.cos, np.sin):
                np.add.reduceat(f(t[:m], out=trig[:m]), starts, axis=1, out=sums[:m])
                parts.append(np.multiply(env, sums[:m], out=terms[:m]).sum(axis=1))
            np.hypot(*parts, out=out[r:r + rows])
        return out, 2.0**-16 + 2.0**-18 + 2.0**-52 * (16 * np.abs(xis) * np.max(np.abs(centers)) + 2 * len(centers))

    @cached_property
    def float_ceiling(self) -> float:
        """The |xi| where the kernel's terms of the `fourier_screen` slack, 2^-52 (16 |xi| max|c| + 2n), reach 2^-20."""
        D, lefts, rights = self.int_ends
        c = max(-lefts[0] - rights[0], lefts[-1] + rights[-1]) / (2 * D)  # max|c|: the centres ascend
        return (2.0**32 - 2 * len(lefts)) / (16 * c) if c > 0 else math.inf

    @cached_property
    def _lengths(self) -> list[float]:
        """The at most eight most heavily weighted piece lengths, heaviest first."""
        by_len: dict[float, float] = {}
        D, lefts, rights = self.int_ends
        for l, r, w in zip(lefts, rights, self.weights):
            key = (r - l) / D
            if key > 0:  # a length whose float underflows has no peak to probe
                by_len[key] = by_len.get(key, 0.0) + w
        return sorted(by_len, key=by_len.get, reverse=True)[:8]

    def resonant_frequencies(self, lo: float, hi: float, cap: int = 24) -> list[float]:
        """Envelope peaks (2k+1)pi/L of the dominant piece lengths in [lo, hi),
        at most cap per length.

        Only the most heavily weighted lengths are probed; for measures with
        thousands of distinct lengths the generic lattice carries the sweep.
        The walk over k is bounded: while consecutive peaks are distinct
        floats, the rounded start leaves few of them below lo; where one step
        of k is below the float spacing, the bound ends it and repeats drop.
        """
        out: list[float] = []
        for L in self._lengths:
            k0 = max(0, int(lo * L / _TWO_PI) - 1)
            added = 0
            for k in range(k0, k0 + cap + 8):
                xi = (2 * k + 1) * math.pi / L
                if xi >= hi or added == cap:
                    break
                if xi >= lo:
                    if out[-1:] != [xi]:  # a repeat of the last peak still counts toward cap
                        out.append(xi)
                    added += 1
        return out

    # -- mass ----------------------------------------------------------------

    @cached_property
    def _terms(self) -> list[tuple[float, int, int]]:
        """Each piece's weight and that float's integer ratio."""
        return [(w, *w.as_integer_ratio()) for w in self.weights]

    def _mass(self, ln: int, hn: int, e: int) -> float:
        """Mass of [ln/e, hn/e], with ln, hn, e ints in the unit of the endpoint numerators.

        Rights do not decrease, so the pieces it can touch are i..j: i is the
        first whose right end reaches ceil(ln/e), j the last whose left end is
        at most floor(hn/e).  Interior pieces are fully covered and come from
        prefix sums; each of the two boundary pieces adds w * overlap / length
        as one ratio of ints divided once, which Python rounds correctly.
        """
        _, lefts, rights = self.int_ends
        i, j = bisect.bisect_left(rights, -(-ln // e)), bisect.bisect_right(lefts, hn // e) - 1
        if j < i:
            return 0.0
        mass, ends = (self._cumw[j] - self._cumw[i + 1], (i, j)) if j > i else (0.0, (i,))
        for k in ends:
            A, B = lefts[k] * e, rights[k] * e
            w, wn, wd = self._terms[k]
            if A == B:
                mass += w
                continue
            mass += (wn * (min(B, hn) - max(A, ln))) / (wd * (B - A))  # 0 when the ball only touches the piece
        return mass

    def ball_mass(self, x, r) -> float:
        """Exact mass of the closed ball [x-r, x+r] via rational overlaps.

        The ball's ends are ints over e = lcm(den x, den r), scaled by the
        common endpoint denominator D, so every comparison is an int one and
        the float is that of the exact rational mass.
        """
        fx, fr = as_fraction(x), as_fraction(r)
        if fr.numerator <= 0:  # a Fraction's denominator is positive: the sign is the numerator's
            raise MeasureError("radius must be positive")
        D = self.int_ends[0]
        e = math.lcm(fx.denominator, fr.denominator)
        xn, rn = fx.numerator * (e // fx.denominator), fr.numerator * (e // fr.denominator)
        return self._mass((xn - rn) * D, (xn + rn) * D, e)

    def max_ball_masses(self, centers: Sequence, radii: Sequence) -> list[float]:
        """max(ball_mass(c, r) for c in centers) for each r in radii, the same floats."""
        cs, rs = [as_fraction(c) for c in centers], [as_fraction(r) for r in radii]
        if any(r.numerator <= 0 for r in rs):
            raise MeasureError("radius must be positive")
        return self._max_ball_masses(*_common_numerators(self.int_ends[0], cs, rs))

    def _max_ball_masses(self, E: int, cn: list[int], rn: list[int]) -> list[float]:
        """`max_ball_masses` of the centres cn / E and radii rn / E > 0, where D divides E.

        One numpy pass brackets every ball's mass from float piece ends c -+ h
        (running maxima, so sorted) and ball ends lo, hi.  The margin d = 2^-48
        max|end| + 2^-1000 exceeds their float errors: pieces past the runs
        within d of lo and of hi miss the ball, pieces between them count
        through the prefix sums, a run of one piece counts its float overlap to
        w min(1, 8d / length) and a longer run 0 to its weight.  A centre whose
        upper bracket reaches the best lower one minus 1e-9 (far above the prefix
        sums' error) is kept: a ball with no piece within d of its ends covers
        whole pieces and takes `_mass`'s float in numpy (a masked row max per
        radius), the others run `_mass` with e = E / D in one loop over all
        radii.  The floats and `_mass`'s ratios are those of the rationals, so
        they do not depend on which common denominator E is.
        """
        if not cn:
            return [max(()) for _ in rn]  # max()'s empty-sequence error, as over no ball
        import numpy as np

        e = E // self.int_ends[0]
        mid, halves, weights, index = self._arrays
        h, w, cw = halves[index], weights[index], np.array(self._cumw)
        A, B = np.maximum.accumulate(mid - h), np.maximum.accumulate(mid + h)
        xf, rf = np.array([c / E for c in cn]), np.array([q / E for q in rn])[:, None]  # floats of the rationals
        lo, hi = xf - rf, xf + rf
        d = 2.0**-48 * max(-A[0], B[-1], np.abs(lo).max(initial=0.0), np.abs(hi).max(initial=0.0)) + 2.0**-1000
        p0, q0 = np.searchsorted(B, lo - d), np.searchsorted(B, hi - d)
        p1, q1 = np.searchsorted(A, lo + d, "right"), np.searchsorted(A, hi + d, "right")
        cross = q0 < p1  # one run of pieces near both ends
        est, err = np.where(cross, 0.0, cw[q0] - cw[p1]), 0.0
        for s0, s1 in ((p0, np.where(cross, q1, p1)), (np.where(cross, q1, q0), q1)):
            k = np.minimum(s0, len(w) - 1)
            with np.errstate(divide="ignore", invalid="ignore"):
                f = np.fmin(np.fmax((np.minimum(B[k], hi) - np.maximum(A[k], lo)) / (2 * h[k]), 0.0), 1.0)
                tol = np.fmin(4 * d / h[k], 1.0)
            lone, half = s1 - s0 == 1, (cw[s1] - cw[s0]) / 2
            est, err = est + np.where(lone, w[k] * f, half), err + np.where(lone, w[k] * tol, half)
        keep = est + err >= (est - err).max(axis=1, initial=-np.inf)[:, None] - 1e-9
        # ends in gaps: the ball covers pieces a..b whole, and `_mass` adds their
        # weights as (cumw[b] - cumw[a + 1]) + w_a + w_b, or w_a alone for a = b
        a, b, gaps = p1, q0 - 1, (p0 == p1) & (q0 == q1)
        wa, wb = w.take(a, mode="clip"), w.take(b, mode="clip")
        whole = np.where(b > a, cw.take(b, mode="clip") - cw.take(a + 1, mode="clip") + wa + wb, (b == a) * wa)
        # masses are never -0.0 or nan, so max only selects one of its values, in any order
        out = np.where(keep & gaps, whole, -np.inf).max(axis=1, initial=-np.inf).tolist()
        for r, m in zip(*(ix.tolist() for ix in np.nonzero(keep & ~gaps))):
            out[r] = max(out[r], self._mass(cn[m] - rn[r], cn[m] + rn[r], e))
        return out

    def affine_pushforward(self, a, t) -> "PiecewiseUniformMeasure":
        fa, ft = as_fraction(a), as_fraction(t)
        if fa == 0:
            raise MeasureError("affine scale must be nonzero")
        return PiecewiseUniformMeasure((*sorted((fa * p + ft, fa * q + ft)), w) for p, q, w in self.pieces)

    def diameter(self) -> Fraction:
        D, lefts, rights = self.int_ends
        return Fraction(rights[-1] - lefts[0], D)


def _floats(name: str, qs: Iterable[Fraction], nonzero: bool = False) -> list[float]:
    """The floats of qs; MeasureError naming the argument if one overflows, or, where nonzero is set, is 0.0."""
    try:
        fs = [float(q) for q in qs]
    except OverflowError:
        raise MeasureError(f"{name} overflows a float") from None
    if nonzero and not all(fs):
        raise MeasureError(f"{name} rounds to float 0")
    return fs


class SelfSimilarProductMeasure:
    """Limit measure of a branching construction, via the product formula.

    Offsets are parent-relative; `offsets[j]` and `contractions[j]` cycle
    when a stage exceeds the stored schedule.  An affine frame (scale,
    shift) composes pushforwards without touching the schedule.
    """

    def __init__(
        self,
        branching: int,
        offsets: Sequence[Sequence[Fraction]],
        contractions: Sequence[Fraction],
        scale: Fraction = Fraction(1),
        shift: Fraction = Fraction(0),
    ) -> None:
        if branching < 2:
            raise MeasureError("branching must be >= 2")
        if not offsets or not contractions:
            raise MeasureError("need at least one stage of offsets and contractions")
        self.branching = branching
        self.offsets = tuple(tuple(as_fraction(o) for o in off) for off in offsets)
        self.contractions = tuple(as_fraction(c) for c in contractions)
        if any(len(off) != branching for off in self.offsets):
            raise MeasureError("each offset stage must list one offset per branch")
        if any(not 0 < c < 1 for c in self.contractions):
            raise MeasureError("contractions must lie in (0, 1)")
        self.scale, self.shift = as_fraction(scale), as_fraction(shift)
        if self.scale == 0:
            raise MeasureError("affine scale must be nonzero")
        # float views for the transform loops, converted once; a scale of 0.0 would leave no frequency scale
        self._cf, self._of = _floats("contraction", self.contractions, True), [_floats("offset", o) for o in self.offsets]
        (self._sf,), (self._tf,) = _floats("affine scale", [self.scale], True), _floats("affine shift", [self.shift])
        self._sched = [abs(self._sf)]
        self._sched = self._stage_scales(401)  # s_0..s_400: every transform reads s_0..s_200, the resonance walk all
        self._tail = self._sched[199:7:-1]  # s_199 .. s_8, ascending: the depth rule's table

    def _stage_scales(self, depth: int) -> list[float]:
        """|parent length| ahead of stages 1..depth, from the schedule or a longer copy."""
        out = self._sched[:depth]
        for j in range(len(out), depth):
            out.append(out[-1] * self._cf[(j - 1) % len(self._cf)])
        return out

    def auto_depth(self, xi: float) -> int:
        """Depth rule: truncate once the residual scale resolves xi to 1e-3.

        The schedule does not increase, so this is 200 minus the count of d in
        8..199 with s_d < target, the bisection that `fourier_eval_many`
        searchsorts; a NaN target sorts last there, so NaN gets depth 8.
        """
        target = 1e-3 / max(abs(xi), 1.0)
        return 8 if math.isnan(target) else 200 - bisect.bisect_left(self._tail, target)

    def fourier_eval(self, xi: float, depth: int | None = None) -> complex:
        """Truncated product: prod over stages of the mean branch phase."""
        if depth is None:
            depth = self.auto_depth(xi)
        if depth < 1:
            raise MeasureError("depth must be >= 1")
        sgn = 1.0 if self._sf > 0 else -1.0
        scales = self._stage_scales(depth)
        acc = cmath.exp(-1j * xi * self._tf)
        inv_b = 1.0 / self.branching
        for j in range(1, depth + 1):
            s = scales[j - 1] * sgn
            off = self._of[(j - 1) % len(self._of)]
            acc *= inv_b * sum(cmath.exp(-1j * xi * o * s) for o in off)
        return acc

    def fourier_modulus(self, xi: float, depth: int | None = None) -> float:
        return abs(self.fourier_eval(xi, depth))

    @cached_property
    def float_ceiling(self) -> float:
        """The |xi| where the kernel's error from forming each phase xi o s_j in float64 (j below the depth rule's
        200), about 2^-53 |xi| (sum_j max|o_j| s_j + |shift|) against exact phases, reaches 2^-20."""
        offs = [max(map(abs, off)) for off in self._of]
        reach = abs(self._tf) + math.fsum(offs[j % len(offs)] * s for j, s in enumerate(self._sched[:200]))
        return 2.0**33 / reach if reach else math.inf

    def fourier_eval_many(self, xis: "np.ndarray") -> "np.ndarray":
        """fourier_eval(xi) with auto_depth for each xi, bit for bit.

        The scalar path's float operations run in CPython's order: phase
        sums start from 0.0, 1/b multiplies as (1/b, 0.0) and each stage as
        (ar*tr - ai*ti, ar*ti + ai*tr), in real arithmetic since numpy's
        complex product may fuse multiply-adds.  Sorted deepest first once
        (depth: a searchsorted on the tail), stage j runs only on the
        prefix of depth > j; elementwise floats do not depend on position.
        A zero offset adds cos(+-0) = 1.0 to the real sum and skips sin(+-0)
        = +-0, which leaves the imaginary sum as it is: that sum starts at
        +0.0 and is never -0.0.
        """
        import numpy as np

        nxi = -np.asarray(xis, dtype=float)
        depth = 200 - np.searchsorted(self._tail, 1e-3 / np.maximum(np.abs(nxi), 1.0))
        order = np.argsort(-depth, kind="stable")
        nxi, live = nxi[order], np.searchsorted(-depth[order], -np.arange(depth.max(initial=0)))  # live[j]: depths > j
        theta = 0.0 + nxi * self._tf
        ar, ai = np.cos(theta), np.sin(theta)
        inv_b = 1.0 / self.branching
        sgn = 1.0 if self._sf > 0 else -1.0
        for j, n in enumerate(live.tolist()):
            s, x = self._sched[j] * sgn, nxi[:n]
            R = I = 0.0
            for o in self._of[j % len(self._of)]:
                if o == 0:
                    R = R + 1.0
                else:
                    t = x * o * s
                    R, I = R + np.cos(t), I + np.sin(t)
            tr, ti = inv_b * R - 0.0 * I, inv_b * I + 0.0 * R
            ar[:n], ai[:n] = ar[:n] * tr - ai[:n] * ti, ar[:n] * ti + ai[:n] * tr
        out = np.empty((len(nxi), 2))  # ar + 1j * ai may lose a zero sign
        out[order, 0], out[order, 1] = ar, ai
        return out.view(complex)[:, 0]

    def fourier_modulus_many(self, xis: "np.ndarray") -> "np.ndarray":
        """abs(fourier_eval(xi)) for each xi: hypot, as abs() takes it; np.abs may differ by an ulp."""
        import numpy as np

        v = self.fourier_eval_many(xis)
        return np.hypot(v.real, v.imag)

    def fourier_screen(self, xis: "np.ndarray") -> tuple["np.ndarray", "np.ndarray"]:
        """The exact moduli, slack 0: the product kernel is already cheap."""
        mods = self.fourier_modulus_many(xis)
        return mods, 0.0 * mods

    def resonant_frequencies(self, lo: float, hi: float) -> list[float]:
        """Candidate extrema pi*m/s_k (m = 1..24) on the reciprocal lattice of the scales s_0..s_400.

        The decay condition is a supremum over all frequencies; for
        self-similar measures the transform is largest along the reciprocal
        lattice of the construction scales, so band suprema sampled without
        these points would overstate the decay.
        """
        out: set[float] = set()
        for s in self._stage_scales(401):  # s_0..s_400, which do not increase
            base = math.pi / s
            if base >= hi:
                break
            for m in range(1, 25):
                xi = base * m
                if lo <= xi < hi:
                    out.add(xi)
        return sorted(out)

    def affine_pushforward(self, a, t) -> "SelfSimilarProductMeasure":
        fa, ft = as_fraction(a), as_fraction(t)
        return SelfSimilarProductMeasure(
            self.branching,
            self.offsets,
            self.contractions,
            scale=fa * self.scale,
            shift=fa * self.shift + ft,
        )


Measure = PiecewiseUniformMeasure | SelfSimilarProductMeasure


def natural_measure(A: IntervalUnion) -> PiecewiseUniformMeasure:
    """Equal weight per piece, uniform within each piece; atoms on singletons."""
    if A.is_empty:
        raise MeasureError("the empty set supports no probability measure")
    n = len(A)
    mu = PiecewiseUniformMeasure.__new__(PiecewiseUniformMeasure)
    mu._set(A.int_ends, [1.0 / n] * n)  # the checks, on the union's view
    return mu


def ball_mass(mu: PiecewiseUniformMeasure, x, r) -> float:
    return mu.ball_mass(x, r)


def affine_pushforward(mu: Measure, a, t) -> Measure:
    return mu.affine_pushforward(a, t)
