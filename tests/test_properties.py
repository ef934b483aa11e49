"""Property tests: integer ball masses and Frostman sups, transform bounds, the
vector transform kernels against the scalar and per-pair references, the
Fourier screen within its slack (also across its 256-piece chunks) and bit
for bit against its per-block form, the screened fit against the per-band
reference, the report's integer Frostman path against the Fraction fit, the
stage-report memo, the exact geometry queries (point distance, Hausdorff
metric, radial lift, grid partition), the integer endpoint view and
one-pass constructors, the integer stage builders and the pruned
Frostman sup (also below the float spacing of its brackets), and the endpoints stored only as integers (lazy pieces,
integer metric, partition and JSON, integer Jarnik and gcantor builders),
against the Fraction formulas, sorting constructors, eager unions and
unpruned maxima they replaced; a guard that reports never read the
Fraction pieces; ball-mass additivity on adjacent balls; and the geometry
queries on integers (radial cell counts, residues by y-interval, JSON
endpoints as integer pairs) and the sieved `next_prime` against the code
they replaced; the depth-ordered product kernel on zero and repeated offsets
and frequencies across depths, the one-pass Frostman sup over gap, `_mass`
and mixed survivors, resonant candidates without adjacent repeats, and the
radial lift's boxes against the checked `BoxUnion` constructor; and the
planar covers' quadrant walk against the per-cell test on signed unions at
dyadic and non-dyadic cell sides, with the radial counts against the lift;
and the block towers' declarations against the hand formulas they replaced
(ordered, never raised by more 1-bits, and Salem for `salemgap` exactly on
the P3 members), with the locality of the `salemgap` stages in the bits;
and the value contract of the six immutable types: copied, deep-copied and
pickled by value, with no attribute set or deleted."""

from __future__ import annotations

import bisect
import cmath
import copy
import json
import math
import pickle
import random
from contextlib import contextmanager
from fractions import Fraction as F
from functools import lru_cache
from itertools import chain

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from salemlab import dimension, primes
from salemlab.bitseq import BitMatrix, BitSequence, p3_member
from salemlab.cli import parse_scheme
from salemlab.constructions import (
    CantorScheme,
    ConstructionError,
    FpScheme,
    GeneralizedCantorScheme,
    IntervalScheme,
    Pi03Scheme,
    SAlphaScheme,
    SalemGapScheme,
    StageReport,
    WeihrauchScheme,
    _dyadic_pow,
    _radial_quadrant,
    _radius,
    jarnik_stage,
    radial_lift,
    radial_reports,
    shrink_cap,
    weihrauch_dimension_target,
)
from salemlab.dimension import (
    DecayFit,
    _least_squares,
    clamp_dimension,
    default_frostman_centers,
    default_frostman_radii,
    fourier_decay_fit,
    frostman_fit,
    salem_report,
)
from salemlab.geometry import (
    BoxUnion,
    GeometryError,
    HausdorffDistance,
    IntervalUnion,
    disjoint_from_compact,
    format_fraction,
    hausdorff_metric,
    intersects_open,
    one_sided_distance,
    simplex_partition_1d,
)
from salemlab.measures import MeasureError, PiecewiseUniformMeasure, SelfSimilarProductMeasure, natural_measure
from salemlab.numberfield import (
    GaussianInt,
    _residue_pairs,
    gaussian_block_reports,
    gaussian_primes_norm_range,
    norm,
    normalized_center,
    residue_system,
)
from salemlab.primes import is_prime, next_prime, primes_in_range
from test_dimension import FIT_MEASURES, reference_band_fit


def reference_ball_mass(mu: PiecewiseUniformMeasure, x: F, r: F) -> float:
    """Ball mass by Fraction compares and one Fraction overlap per boundary piece."""
    lo, hi = x - r, x + r
    lefts = [a for a, _, _ in mu.pieces]

    def overlap(k: int) -> float:
        a, b, w = mu.pieces[k]
        if b < lo or a > hi:
            return 0.0
        if a == b:
            return w
        ov = min(b, hi) - max(a, lo)
        if ov <= 0:
            return 0.0
        return float(F(w) * ov / (b - a))

    i = bisect.bisect_left(lefts, lo)
    if i > 0 and mu.pieces[i - 1][1] >= lo:
        i -= 1
    j = bisect.bisect_right(lefts, hi) - 1
    if j < i:
        return 0.0
    if j == i:
        return overlap(i)
    return mu._cumw[j] - mu._cumw[i + 1] + overlap(i) + overlap(j)


# denominators from small to several hundred bits, so the common
# denominator of a measure can be far wider than a float mantissa
denominators = st.one_of(
    st.integers(1, 64),
    st.builds(lambda b, e: b**e, st.sampled_from([2, 3, 5, 7, 11]), st.integers(1, 90)),
    st.integers(1, 2**300),
)
rationals = st.builds(lambda n, d: F(n % (3 * d) - d, d), st.integers(0, 2**400), denominators)


@st.composite
def measures(draw):
    """Disjoint pieces with atoms among them, and positive weights summing to 1."""
    ends = sorted(set(draw(st.lists(rationals, min_size=1, max_size=14))))
    pieces, k = [], 0
    while k < len(ends):
        if k + 1 < len(ends) and draw(st.booleans()):
            pieces.append((ends[k], ends[k + 1]))
            k += 2
        else:
            pieces.append((ends[k], ends[k]))
            k += 1
    raw = draw(st.lists(st.integers(1, 1000), min_size=len(pieces), max_size=len(pieces)))
    total = sum(raw)
    return PiecewiseUniformMeasure([(a, b, v / total) for (a, b), v in zip(pieces, raw)])


@st.composite
def measures_and_balls(draw):
    mu = draw(measures())
    ends = [e for a, b, _ in mu.pieces for e in (a, b)]
    D = math.lcm(*(e.denominator for e in ends))
    # ball ends: on a piece endpoint, within 1/D of one (between two grid
    # points of the common denominator), or anywhere
    near = st.builds(lambda e, s, m: e + F(s, D * m), st.sampled_from(ends),
                     st.sampled_from([-1, 1]), st.integers(2, 2**70))
    lo = draw(st.one_of(st.sampled_from(ends), near, rationals))
    hi = draw(st.one_of(st.sampled_from(ends), near, rationals))
    if lo == hi:
        hi = lo + F(1, draw(denominators))
    lo, hi = min(lo, hi), max(lo, hi)
    return mu, (lo + hi) / 2, (hi - lo) / 2


@settings(max_examples=400, deadline=None)
@given(measures_and_balls())
def test_integer_ball_mass_equals_fraction_formula(case):
    mu, x, r = case
    assert mu.ball_mass(x, r) == reference_ball_mass(mu, x, r)


positive_rationals = st.builds(lambda n, d: F(n % (2 * d) + 1, d), st.integers(0, 2**400), denominators)


@st.composite
def frostman_cases(draw):
    """Centres on endpoints or anywhere, radii with denominators unrelated to the
    measure's, and touching balls: radii reaching exactly from a centre to an endpoint."""
    mu = draw(measures())
    ends = [e for a, b, _ in mu.pieces for e in (a, b)]
    centers = draw(st.lists(st.one_of(st.sampled_from(ends), rationals), min_size=1, max_size=6))
    radii = draw(st.lists(positive_rationals, min_size=1, max_size=4))
    touching = [abs(e - c) for c in centers for e in ends if e != c]
    if touching:
        radii += draw(st.lists(st.sampled_from(touching), min_size=1, max_size=4))
    return mu, centers, radii


@settings(max_examples=300, deadline=None)
@given(frostman_cases())
def test_max_ball_masses_equal_per_ball_masses(case):
    mu, centers, radii = case
    sups = mu.max_ball_masses(centers, radii)
    assert sups == [max(mu.ball_mass(c, r) for c in centers) for r in radii]
    assert sups == [max(reference_ball_mass(mu, c, r) for c in centers) for r in radii]


@settings(max_examples=300, deadline=None)
@given(measures_and_balls(), st.lists(positive_rationals, max_size=5))
def test_ball_mass_monotone_bounded_and_full_on_the_support(case, more_radii):
    mu, x, r = case
    masses = [mu.ball_mass(x, s) for s in sorted({r, *more_radii})]
    assert all(0.0 <= m <= 1.0 + 1e-12 for m in masses)
    # monotone up to rounding: the covered pieces come from float prefix sums, so a
    # piece moving from a boundary into the bulk can lower the float by an ulp
    assert all(a <= b + 1e-12 for a, b in zip(masses, masses[1:]))
    lo, hi = mu.pieces[0][0], max(b for _, b, _ in mu.pieces)
    cover = max(x - lo, hi - x)  # the ball's ends reach the support's ends
    assert abs(mu.ball_mass(x, cover if cover > 0 else F(1)) - 1.0) <= 1e-12


xis = st.floats(-1e7, 1e7, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(measures(), st.lists(xis, min_size=1, max_size=8))
def test_piecewise_uniform_transform_is_at_most_one(mu, xs):
    assert all(mu.fourier_modulus(xi) <= 1.0 + 1e-12 for xi in xs)
    assert max(mu.fourier_modulus_many(np.array(xs))) <= 1.0 + 1e-12


@st.composite
def product_measures(draw):
    """Offsets that are often 0, stages whose offsets are all 0 or all one value,
    repeated offsets within a stage, scales of both signs and shifts often 0."""
    b = draw(st.integers(2, 4))
    stages = draw(st.integers(1, 3))
    contractions = [F(draw(st.integers(1, 99)), 100) for _ in range(stages)]
    offset = st.one_of(st.just(F(0)), st.builds(F, st.integers(0, 1000), st.just(1000)))
    offsets = []
    for _ in range(stages):  # each stage draws its b offsets from a pool of 1 to b values
        pool = draw(st.one_of(st.just([F(0)]), st.lists(offset, min_size=1, max_size=b)))
        offsets.append([draw(st.sampled_from(pool)) for _ in range(b)])
    scale = F(draw(st.integers(1, 50)) * draw(st.sampled_from([-1, 1])), draw(st.integers(1, 50)))
    return SelfSimilarProductMeasure(b, offsets, contractions, scale, draw(st.one_of(st.just(F(0)), rationals)))


@settings(max_examples=200, deadline=None)
@given(product_measures(), st.lists(xis, min_size=1, max_size=8), st.integers(1, 30))
def test_product_transform_is_at_most_one(mu, xs, depth):
    assert all(mu.fourier_modulus(xi) <= 1.0 + 1e-12 for xi in xs)
    assert all(mu.fourier_modulus(xi, depth) <= 1.0 + 1e-12 for xi in xs)


def bits(values) -> list[tuple[str, str]]:
    """Exact bit patterns of complex values, so a lost sign of zero shows too."""
    return [(complex(v).real.hex(), complex(v).imag.hex()) for v in values]


# the origin, both signs and both ends of the range besides the general floats
edge_xis = st.one_of(xis, st.sampled_from([0.0, -0.0, 1e7, -1e7, 1e-300]))


@st.composite
def product_xis(draw):
    """Frequency lists across many depths (|xi| from 2^-4 to 2^60 besides the edge
    floats), with repeats, in no particular order."""
    spread = st.builds(lambda sign, e: sign * 2.0**e, st.sampled_from([-1.0, 1.0]), st.floats(-4, 60))
    xs = draw(st.lists(st.one_of(edge_xis, spread), min_size=1, max_size=40))
    xs += draw(st.lists(st.sampled_from(xs), max_size=10))
    return draw(st.permutations(xs))


# a middle-third Cantor measure (one zero offset per stage), a stage of zero offsets
# and a stage of one repeated offset, at frequencies from depth 8 to past 60
ZERO_OFFSET_XIS = [3.0, 0.0, -2.0**40, 1e-300, 2.0**60, -0.0, 3.0, -1e7, 2.0**20, 0.0]


def reference_product_eval(mu: SelfSimilarProductMeasure, xi: float, depth: int | None = None) -> complex:
    """The scalar product before the cached schedule: depth by its own loop, the
    sign from the Fraction scale, the scales rebuilt on every call."""
    if depth is None:
        s, depth, target = abs(mu._sf), 0, 1e-3 / max(abs(xi), 1.0)
        while depth < 200 and (depth < 8 or s >= target):
            s *= mu._cf[depth % len(mu._cf)]
            depth += 1
    scales = [abs(mu._sf)]
    for j in range(1, depth):
        scales.append(scales[-1] * mu._cf[(j - 1) % len(mu._cf)])
    sgn = 1.0 if mu.scale > 0 else -1.0
    acc = cmath.exp(-1j * xi * mu._tf)
    for j in range(1, depth + 1):
        off = mu._of[(j - 1) % len(mu._of)]
        acc *= (1.0 / mu.branching) * sum(cmath.exp(-1j * xi * o * (scales[j - 1] * sgn)) for o in off)
    return acc


@settings(max_examples=300, deadline=None)
@given(product_measures(), product_xis())
@example(SelfSimilarProductMeasure(2, [[0, F(2, 3)]], [F(1, 3)]), ZERO_OFFSET_XIS)
@example(SelfSimilarProductMeasure(3, [[0, 0, 0], [F(1, 2)] * 3], [F(1, 2), F(1, 5)], F(-3, 7), F(0)), ZERO_OFFSET_XIS)
def test_product_vector_kernel_is_bit_identical_to_the_scalar_path(mu, xs):
    scalar = [mu.fourier_eval(xi) for xi in xs]
    many = mu.fourier_eval_many(np.array(xs))
    assert many.tolist() == scalar
    assert bits(many) == bits(scalar)
    assert mu.fourier_modulus_many(np.array(xs)).tolist() == [abs(v) for v in scalar]


@settings(max_examples=200, deadline=None)
@given(product_measures(), st.lists(edge_xis, min_size=1, max_size=6), st.sampled_from([None, 1, 9, 200, 201, 260]))
def test_scalar_product_reads_the_schedule_and_extends_it(mu, xs, depth):
    assert bits(mu.fourier_eval(xi, depth) for xi in xs) == bits(reference_product_eval(mu, xi, depth) for xi in xs)
    assert len(mu._sched) == 201


def reference_piecewise_eval_many(mu: PiecewiseUniformMeasure, xis: np.ndarray) -> np.ndarray:
    """The piecewise kernel before the pair table: sinc and complex exp for every
    (xi, piece) pair, 512 pieces and every xi at a time."""
    centers = np.array([float((a + b) / 2) for a, b, _ in mu.pieces])
    halves = np.array([float((b - a) / 2) for a, b, _ in mu.pieces])
    weights = np.array([w for _, _, w in mu.pieces])
    out = np.zeros(len(xis), dtype=complex)
    for start in range(0, len(weights), 512):
        sl = slice(start, start + 512)
        sinc = np.sinc(np.outer(xis, halves[sl]) / np.pi)
        out += (weights[sl] * sinc * np.exp(-1j * np.outer(xis, centers[sl]))).sum(axis=1)
    return out


@st.composite
def many_piece_measures(draw):
    """One piece, a few, or more than one 512-piece block; atoms among them and
    few distinct (length, weight) pairs, as on stage sets."""
    n = draw(st.sampled_from([1, 2, 5, 513, 1300]))
    rng = draw(st.randoms(use_true_random=False))
    den = draw(st.integers(1, 97))
    raw = [rng.choice([1, 2, 7]) for _ in range(n)]
    total = sum(raw)
    return PiecewiseUniformMeasure(
        [(F(4 * k, den), F(4 * k + rng.choice([0, 1, 3]), den), v / total) for k, v in enumerate(raw)]
    )


@settings(max_examples=80, deadline=None)
@given(st.one_of(measures(), many_piece_measures()), st.lists(edge_xis, min_size=1, max_size=300))
def test_piecewise_kernel_is_bit_identical_to_the_per_pair_kernel(mu, xs):
    got = mu.fourier_eval_many(np.array(xs))
    assert got.tobytes() == reference_piecewise_eval_many(mu, np.array(xs)).tobytes()


@st.composite
def touching_measures(draw):
    """Intervals that share endpoints with atoms on their ends, unequal weights."""
    ends = sorted(draw(st.lists(rationals, min_size=2, max_size=14, unique=True)))
    pieces = []
    for a, b in zip(ends, ends[1:]):
        if draw(st.booleans()):
            pieces.append((a, a))
        if draw(st.booleans()) or not pieces:
            pieces.append((a, b))
    raw = draw(st.lists(st.integers(1, 1000), min_size=len(pieces), max_size=len(pieces)))
    return PiecewiseUniformMeasure([(a, b, v / sum(raw)) for (a, b), v in zip(pieces, raw)])


@st.composite
def screened_measures(draw):
    """Piecewise measures of every shape, some pushed by an affine map that may
    reverse them and move their centres below 0."""
    mu = draw(st.one_of(measures(), touching_measures(), many_piece_measures()))
    if draw(st.booleans()):
        scale = draw(st.sampled_from([-1, 1])) * draw(positive_rationals)
        mu = mu.affine_pushforward(scale, draw(rationals) - 3)
    return mu


# frequencies where the slack is small, up to 2^40 where it passes 1, and the edges
screen_xis = st.one_of(
    st.floats(-(2.0**16), 2.0**16), st.floats(-(2.0**40), 2.0**40), st.sampled_from([0.0, -0.0, 1e-300, 2.0**40])
)


@settings(max_examples=150, deadline=None)
@given(screened_measures(), st.lists(screen_xis, min_size=1, max_size=300))
def test_screen_is_within_its_slack_of_the_exact_kernel(mu, xs):
    approx, slack = mu.fourier_screen(np.array(xs))
    exact = mu.fourier_modulus_many(np.array(xs))
    assert np.all(np.abs(approx - exact) <= slack)
    if len(mu.pieces) == 1:  # one piece answers with the exact modulus
        assert approx.tobytes() == exact.tobytes() and not slack.any()


@st.composite
def chunked_measures(draw):
    """The screen's chunk edges: one pair over 257 or 1,025 pieces, or up to 40
    pairs interleaved over 513 to 1,300 pieces, so 256-piece chunks end inside
    pair runs and a call's frequencies span several row blocks."""
    rng = draw(st.randoms(use_true_random=False))
    den = draw(st.integers(1, 97))
    if draw(st.booleans()):
        n, length = draw(st.sampled_from([257, 1025])), draw(st.sampled_from([0, 1, 3]))
        return PiecewiseUniformMeasure([(F(4 * k, den), F(4 * k + length, den), 1 / n) for k in range(n)])
    n = draw(st.integers(513, 1300))
    pairs = [(rng.randrange(4), rng.randint(1, 10)) for _ in range(n)]
    total = sum(v for _, v in pairs)
    return PiecewiseUniformMeasure([(F(4 * k, den), F(4 * k + L, den), v / total) for k, (L, v) in enumerate(pairs)])


@settings(max_examples=60, deadline=None)
@given(chunked_measures(), st.lists(screen_xis, min_size=1, max_size=300))
def test_chunked_screen_is_within_its_slack_of_the_exact_kernel(mu, xs):
    approx, slack = mu.fourier_screen(np.array(xs))
    assert np.all(np.abs(approx - mu.fourier_modulus_many(np.array(xs))) <= slack)


def reference_screen(mu: PiecewiseUniformMeasure, xis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The screen with its envelope and temporaries made block by block."""
    if len(mu.weights) == 1:
        (a, b, w), = mu.pieces
        return w * np.abs(np.sinc(xis * float((b - a) / 2) / np.pi)), np.zeros(len(xis))
    centers, halves, weights, _ = mu._arrays
    turns, starts, pair = mu._chunks
    rows = max(1, 2**15 // len(turns))
    out = np.empty(len(xis))
    for r in range(0, len(xis), rows):
        x = xis[r:r + rows]
        envelope = (weights * np.sinc(x[:, None] * halves / np.pi))[:, pair]
        p = np.einsum("i,j->ij", x, turns)
        p -= np.rint(p)
        t = p.astype(np.float32)
        t *= np.float32(2.0 * math.pi)
        re = (envelope * np.add.reduceat(np.cos(t), starts, axis=1)).sum(axis=1)
        im = (envelope * np.add.reduceat(np.sin(t), starts, axis=1)).sum(axis=1)
        out[r:r + rows] = np.hypot(re, im)
    return out, 2.0**-16 + 2.0**-18 + 2.0**-52 * (16 * np.abs(xis) * np.max(np.abs(centers)) + 2 * len(centers))


@settings(max_examples=60, deadline=None)
@given(st.one_of(screened_measures(), chunked_measures()), st.sampled_from(["1", "rows-1", "rows", "rows+1", "blocks"]),
       st.randoms(use_true_random=False))
def test_screen_is_bit_identical_to_the_per_block_reference(mu, count, rng):
    """Counts around the block of 2^15 // n rows: one frequency, one block short
    of, at and past a full one, and several blocks with a short last one."""
    rows = max(1, 2**15 // len(mu.weights))
    n = {"1": 1, "rows-1": rows - 1, "rows": rows, "rows+1": rows + 1, "blocks": 3 * rows + rng.randint(1, rows)}[count]
    xis = np.array([rng.choice([-1.0, 1.0]) * 2.0 ** rng.uniform(-4, 40) for _ in range(max(n, 1))])
    got, want = mu.fourier_screen(xis), reference_screen(mu, xis)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


@settings(max_examples=100, deadline=None)
@given(product_measures(), product_xis())
def test_product_screen_is_the_exact_kernel(mu, xs):
    approx, slack = mu.fourier_screen(np.array(xs))
    assert approx.tobytes() == mu.fourier_modulus_many(np.array(xs)).tobytes() and not slack.any()


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(screened_measures(), product_measures()),
    st.lists(screen_xis, min_size=1, max_size=300),
    st.randoms(use_true_random=False),
)
def test_exact_kernel_gives_a_frequency_the_same_float_alone_or_in_a_batch(mu, xs, rng):
    """The screened fit reads survivors' moduli from a smaller batch than the sweep's."""
    xis = np.array(xs)
    batch = mu.fourier_modulus_many(xis)
    subset = np.array(sorted(rng.sample(range(len(xs)), rng.randint(1, len(xs)))))
    assert mu.fourier_modulus_many(xis[subset]).tobytes() == batch[subset].tobytes()
    i = rng.randrange(len(xs))
    assert mu.fourier_modulus_many(xis[i:i + 1]).tobytes() == batch[i:i + 1].tobytes()


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(st.sampled_from(sorted(FIT_MEASURES)), many_piece_measures(), touching_measures()),
    st.integers(0, 2**20),
    st.sampled_from([2.0**12, 2.0**16, 2.0**28, 2.0**40]),
)
def test_screened_fit_equals_the_per_band_reference(mu, seed, xi_max):
    mu = FIT_MEASURES[mu]() if isinstance(mu, str) else mu
    assert fourier_decay_fit(mu, xi_max, seed=seed) == reference_band_fit(mu, seed, xi_max)


def reference_resonances(mu: PiecewiseUniformMeasure, lo: float, hi: float, cap: int = 24) -> list[float] | None:
    """The unbounded walk over k that `resonant_frequencies` replaced; None once two
    consecutive peaks round to one float, where that walk may never end."""
    by_len: dict[float, float] = {}
    D, lefts, rights = mu.int_ends
    for l, r, w in zip(lefts, rights, mu.weights):
        if (r - l) / D > 0:
            by_len[(r - l) / D] = by_len.get((r - l) / D, 0.0) + w
    out: list[float] = []
    for L in sorted(by_len, key=by_len.get, reverse=True)[:8]:
        k = max(0, int(lo * L / (2.0 * math.pi)) - 1)
        added, last = 0, None
        while added < cap:
            xi = (2 * k + 1) * math.pi / L
            if xi == last:
                return None
            last = xi
            if xi >= hi:
                break
            if xi >= lo:
                out.append(xi)
                added += 1
            k += 1
    return out


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(measures(), touching_measures(), many_piece_measures()),
    st.floats(-8, 60),
    st.floats(0, 8),
    st.sampled_from([1, 3, 24]),
)
@example(PiecewiseUniformMeasure([(F(0), F(1, 3), 1.0)]), 126.0, 1.0, 24)  # the 1e37 band of a cold report
def test_bounded_resonance_walk_equals_the_unbounded_loop(mu, log_lo, log_width, cap):
    lo = 2.0**log_lo
    hi = lo * 2.0**log_width
    got = mu.resonant_frequencies(lo, hi, cap)
    assert len(got) <= cap * len(mu._lengths) and all(lo <= xi < hi for xi in got)
    want = reference_resonances(mu, lo, hi, cap)
    if want is not None:  # a length's peaks are distinct; the next length's first may repeat its last
        assert got == without_adjacent_repeats(want)


def without_adjacent_repeats(xs: list[float]) -> list[float]:
    return [x for i, x in enumerate(xs) if i == 0 or xs[i - 1] != x]


def reference_bounded_resonances(mu: PiecewiseUniformMeasure, lo: float, hi: float, cap: int = 24) -> list[float]:
    """The bounded walk over k before it dropped repeated floats."""
    out: list[float] = []
    for L in mu._lengths:
        k0 = max(0, int(lo * L / (2.0 * math.pi)) - 1)
        added = 0
        for k in range(k0, k0 + cap + 8):
            xi = (2 * k + 1) * math.pi / L
            if xi >= hi or added == cap:
                break
            if xi >= lo:
                out.append(xi)
                added += 1
    return out


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(measures(), touching_measures(), many_piece_measures()),
    st.floats(-8, 140),
    st.floats(0, 8),
    st.sampled_from([1, 3, 24]),
)
@example(PiecewiseUniformMeasure([(F(0), F(1, 3), 1.0)]), 126.0, 1.0, 24)
def test_resonance_walk_drops_only_adjacent_repeats(mu, log_lo, log_width, cap):
    lo = 2.0**log_lo
    hi = lo * 2.0**log_width
    got = mu.resonant_frequencies(lo, hi, cap)
    assert got == without_adjacent_repeats(reference_bounded_resonances(mu, lo, hi, cap))


def test_far_band_of_a_jarnik_stage_has_no_repeated_candidate():
    """Where the walk gave 48 copies of one float: one step of k is below its spacing."""
    mu = natural_measure(parse_scheme("jarnik:1.0").stage(3))
    old = reference_bounded_resonances(mu, 2.0**122, 2.0**123)
    got = mu.resonant_frequencies(2.0**122, 2.0**123)
    assert len(old) == 48 and len(set(old)) == 1
    assert got == old[:1]


SPECS = {
    "cantor:3": 6,
    "gcantor:0.5": 6,
    "interval": 6,
    "jarnik:1.0": 4,
    "salpha:1.0": 4,
    "fp:0.5:x=11(0)": 4,
    "pi03:0.8:rows=1;(01);0": 3,
    "salemgap:0.63:rows=1;0": 4,
    "weihrauch:xs=1;0;(10)": 3,
}


@lru_cache(maxsize=None)
def fresh_report(spec: str, k: int):
    scheme = parse_scheme(spec)
    return scheme.report_of(k, scheme.stage(k))


@st.composite
def call_sequences(draw):
    spec = draw(st.sampled_from(sorted(SPECS)))
    top = SPECS[spec]
    calls = []
    for _ in range(draw(st.integers(1, 5))):
        lo = draw(st.integers(1, top))
        calls.append((lo, draw(st.integers(lo, top))))
    return spec, calls


@settings(max_examples=60, deadline=None)
@given(call_sequences())
def test_memoised_reports_equal_fresh_scheme_reports(case):
    spec, calls = case
    scheme = parse_scheme(spec)
    for lo, hi in calls:
        assert scheme.reports(lo, hi) == [fresh_report(spec, k) for k in range(lo, hi + 1)]


@pytest.mark.parametrize("spec", sorted(SPECS))
def test_negative_stage_is_refused_after_a_built_stage(spec):
    scheme = parse_scheme(spec)
    scheme.stage(2)
    with pytest.raises(ConstructionError, match="^stage must be nonnegative$"):
        scheme.stage(-1)


# -- exact geometry queries ------------------------------------------------
#
# The references below are the per-query scans the bisecting kernels
# replaced; the kernels must agree with them exactly.


def reference_point_distance(U: IntervalUnion, x: F) -> F:
    """d(x, U) by scanning the pieces from the first one."""
    best = None
    for a, b in U.pieces:
        if a <= x <= b:
            return F(0)
        d = a - x if x < a else x - b
        if best is None or d < best:
            best = d
        if x < a:
            break
    return best


def reference_hausdorff(A: IntervalUnion, B: IntervalUnion) -> F:
    if A.is_empty and B.is_empty:
        return F(0)
    if A.is_empty or B.is_empty:
        return A.space[1] - A.space[0]

    def one_sided(src, dst):
        candidates = [e for piece in src.pieces for e in piece]
        for (_, b1), (a2, _) in zip(dst.pieces, dst.pieces[1:]):
            if src.contains_point((b1 + a2) / 2):
                candidates.append((b1 + a2) / 2)
        return max(reference_point_distance(dst, x) for x in candidates)

    return max(one_sided(A, B), one_sided(B, A))


def reference_radial_cover(A: IntervalUnion, res: F) -> set:
    """Cells of [-n res, n res]^2 whose norm range meets a radius piece, by any()."""
    radii_sq = [(a * a, b * b) for a, b in A.pieces]
    n = math.ceil(1 / res)
    cells = set()
    for i in range(-n, n):
        x0, x1 = i * res, (i + 1) * res
        minx = F(0) if x0 <= 0 <= x1 else min(abs(x0), abs(x1))
        maxx = max(abs(x0), abs(x1))
        for j in range(-n, n):
            y0, y1 = j * res, (j + 1) * res
            miny = F(0) if y0 <= 0 <= y1 else min(abs(y0), abs(y1))
            maxy = max(abs(y0), abs(y1))
            lo2, hi2 = minx * minx + miny * miny, maxx * maxx + maxy * maxy
            if any(lo2 <= b2 and hi2 >= a2 for a2, b2 in radii_sq):
                cells.add(((x0, x1), (y0, y1)))
    return cells


def reference_partition(A: IntervalUnion, g: F) -> list[IntervalUnion]:
    """Grid partition by intersecting the whole union with every cell."""
    if A.is_empty:
        return []
    out = []
    n = A.pieces[0][0] // g
    while n * g <= A.pieces[-1][1]:
        cell = A.intersect_interval(n * g, (n + 1) * g)
        if not cell.is_empty and not (out and cell.subset_of(out[-1])):
            out.append(cell)
        n += 1
    return out


unit_rationals = st.builds(lambda n, d: F(n % (d + 1), d), st.integers(0, 2**400), denominators)


def near(points: list[F]) -> st.SearchStrategy[F]:
    """The points themselves, or points a tiny step to either side, kept in [0, 1]."""
    step = st.builds(lambda p, s, m: min(max(p + F(s, m), F(0)), F(1)),
                     st.sampled_from(points), st.sampled_from([-1, 1]), st.integers(2, 2**90))
    return st.one_of(st.sampled_from(points), step)


@st.composite
def unions(draw, points=unit_rationals, min_size=0):
    """A union in [0, 1] with atoms among its pieces and gaps of any width."""
    ends = sorted(set(draw(st.lists(points, min_size=min_size, max_size=12))))
    pieces, k = [], 0
    while k < len(ends):
        if k + 1 < len(ends) and draw(st.booleans()):
            pieces.append((ends[k], ends[k + 1]))
            k += 2
        else:
            pieces.append((ends[k], ends[k]))
            k += 1
    return IntervalUnion(pieces)


def landmarks(*sets: IntervalUnion) -> list[F]:
    """Endpoints and gap midpoints: where the distance function has breakpoints."""
    out = [F(0), F(1)]
    for U in sets:
        out += [e for piece in U.pieces for e in piece]
        out += [(b1 + a2) / 2 for (_, b1), (a2, _) in zip(U.pieces, U.pieces[1:])]
    return out


@st.composite
def related_unions(draw, count: int):
    """Unions whose endpoints often sit on or next to the earlier ones' breakpoints."""
    out = [draw(unions())]
    while len(out) < count:
        out.append(draw(unions(st.one_of(unit_rationals, near(landmarks(*out))))))
    return out


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_point_distance_and_containment_equal_scan(data):
    U = data.draw(unions(min_size=1))
    x = data.draw(st.one_of(rationals, near(landmarks(U))))
    assert U.point_distance(x) == reference_point_distance(U, x)
    assert U.contains_point(x) == (reference_point_distance(U, x) == 0)


@settings(max_examples=150, deadline=None)
@given(related_unions(2))
def test_hausdorff_metric_equals_reference(pair):
    A, B = pair
    d = hausdorff_metric(A, B)
    assert d.exact and d.value == reference_hausdorff(A, B)


@settings(max_examples=100, deadline=None)
@given(related_unions(3))
def test_hausdorff_metric_axioms(triple):
    A, B, C = triple
    dab = hausdorff_metric(A, B).value
    assert dab == hausdorff_metric(B, A).value
    assert hausdorff_metric(A, A).value == 0
    assert (dab == 0) == (A == B)
    assert hausdorff_metric(A, C).value <= dab + hausdorff_metric(B, C).value


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_fell_and_vietoris_predicates_equal_the_pairwise_oracles(data):
    """Both orders of the Fell walk (so both of its advances) against every pair of closed pieces, and
    the Vietoris test against the midpoint of each piece's overlap with each open interval."""
    A, B = data.draw(related_unions(2))
    points = st.one_of(unit_rationals, near(landmarks(A, B)))
    U = data.draw(st.lists(st.tuples(points, points), max_size=4))  # (c, d) with c >= d is empty

    def meets(X, Y):
        return any(max(a, c) <= min(b, d) for a, b in X.pieces for c, d in Y.pieces)

    def midpoint_in_open(a, b, c, d):
        lo, hi = max(a, c), min(b, d)
        return lo <= hi and c < (lo + hi) / 2 < d

    assert disjoint_from_compact(A, B) == disjoint_from_compact(B, A) == (not meets(A, B))
    assert intersects_open(A, U) == any(midpoint_in_open(a, b, c, d) for a, b in A.pieces for c, d in U)


@st.composite
def radial_cases(draw):
    res = draw(st.sampled_from([F(1, 2), F(1, 3), F(1, 4), F(2, 7), F(1, 8), F(3, 16), F(1, 16)]))
    # grid multiples k*res are norms that cells reach exactly (k = 5: the 3-4-5 corner)
    grid = [k * res for k in range(math.ceil(1 / res) + 1) if k * res <= 1]
    return draw(unions(st.one_of(unit_rationals, near(grid)))), res


@settings(max_examples=100, deadline=None)
@given(radial_cases())
def test_radial_lift_equals_any_rule(case):
    A, res = case
    assert set(radial_lift(A, res).pieces) == reference_radial_cover(A, res)


@st.composite
def stage_sets(draw):
    spec = draw(st.sampled_from(sorted(SPECS)))
    return parse_scheme(spec).stage(draw(st.integers(0, SPECS[spec])))


@settings(max_examples=60, deadline=None)
@given(stage_sets(), st.integers(8, 64))
def test_radial_lift_boxes_equal_the_checked_constructor(A, q):
    lift = radial_lift(A, F(1, q))
    assert lift.dimension == 2
    assert lift.pieces == BoxUnion(2, lift.pieces).pieces


grids = st.one_of(
    st.builds(lambda q: F(1, q), st.integers(1, 40)),
    st.builds(F, st.integers(1, 2**80), st.integers(1, 2**80)).filter(lambda g: g >= F(1, 64)),
)


@settings(max_examples=150, deadline=None)
@given(unions(), grids)
def test_simplex_partition_equals_reference(A, g):
    parts = simplex_partition_1d(A, g)
    assert parts == reference_partition(A, g)
    assert IntervalUnion.from_intervals(p for part in parts for p in part.pieces) == A


# -- one integer view per union, one-pass constructors ---------------------
#
# The references below are the Fraction formulas and the sort-then-check
# constructors the integer view and the one-pass checks replaced.


def reference_union(pieces, space=(0, 1)) -> tuple:
    """(space, pieces) as the constructor built them by sorting every input, or its error."""
    lo, hi = F(space[0]), F(space[1])
    if lo >= hi:
        raise GeometryError("space bound must be nondegenerate")
    norm = []
    for a, b in pieces:
        fa, fb = F(a), F(b)
        if fa > fb:
            raise GeometryError(f"interval [{fa}, {fb}] reversed")
        if fa < lo or fb > hi:
            raise GeometryError(f"piece [{fa}, {fb}] outside space [{lo}, {hi}]")
        norm.append((fa, fb))
    norm.sort()
    for (a1, b1), (a2, _) in zip(norm, norm[1:]):
        if a2 <= b1:
            raise GeometryError(f"pieces [{a1},{b1}] and starting {a2} not disjoint")
    return (lo, hi), tuple(norm)


def built_union(pieces) -> tuple:
    U = IntervalUnion(pieces)
    return U.space, U.pieces


def outcome(build, *args):
    try:
        return build(*args)
    except GeometryError as e:
        return f"GeometryError: {e}"


def assert_view(U: IntervalUnion) -> None:
    D, lefts, rights = U.int_ends
    assert D == math.lcm(*(e.denominator for p in U.pieces for e in p))
    assert [(F(l, D), F(r, D)) for l, r in zip(lefts, rights)] == list(U.pieces)
    assert U.int_ends is U.int_ends


def reference_stage_report(k: int, U: IntervalUnion) -> StageReport:
    diams = [b - a for a, b in U.pieces if b > a]
    if not diams:
        return StageReport(k, len(U.pieces), F(0), F(0))
    return StageReport(k, len(U.pieces), min(diams), max(diams))


def reference_report_of(scheme, k: int, U: IntervalUnion) -> StageReport:
    """The stage statistics before the integer view: the towers rebuilt a union
    without the piece at 0; the interval scheme counts grid cells."""
    if isinstance(scheme, (Pi03Scheme, SalemGapScheme)):
        U = IntervalUnion([p for p in U.pieces if p[0] != 0], space=U.space)
    elif isinstance(scheme, IntervalScheme):
        cells = simplex_partition_1d(U, F(1, 2**k))
        return StageReport(k, len(cells), F(1, 2**k), F(1, 2**k))
    return reference_stage_report(k, U)


def reference_centers(mu: PiecewiseUniformMeasure, cap: int = 128) -> list[F]:
    pts = []
    for a, b, _ in mu.pieces:
        pts.append(a)
        if b > a:
            pts.append((a + b) / 2)
            pts.append(b)
    if any(b >= a2 for (_, b, _), (a2, _, _) in zip(mu.pieces, mu.pieces[1:])):
        pts = sorted(set(pts))
    if len(pts) > cap:
        step = (len(pts) - 1) / (cap - 1)
        pts = [pts[round(i * step)] for i in range(cap)]
    return pts


def reference_radii(mu: PiecewiseUniformMeasure, min_scales: int = 6) -> list[F]:
    diam = mu.diameter()
    if diam <= 0:
        return [F(1, 2**j) for j in range(2, 2 + max(min_scales, 4))]
    floor = min((b - a for a, b, _ in mu.pieces if b > a), default=diam / 2**10)
    radii = []
    r = diam / 4
    while r >= floor and len(radii) < 40:
        radii.append(r)
        r /= 2
    while len(radii) < max(min_scales, 4):
        radii.append(radii[-1] / 2 if radii else diam / 4)
    return radii


def reference_arrays(mu: PiecewiseUniformMeasure) -> tuple:
    pairs = [(float((b - a) / 2), w) for a, b, w in mu.pieces]
    index = {p: k for k, p in enumerate(dict.fromkeys(pairs))}
    return (
        np.array([float((a + b) / 2) for a, b, _ in mu.pieces]),
        np.array([h for h, _ in index]),
        np.array([w for _, w in index]),
        np.array([index[p] for p in pairs]),
    )


def assert_measure_readings(mu: PiecewiseUniformMeasure) -> None:
    assert default_frostman_centers(mu) == reference_centers(mu)
    assert default_frostman_centers(mu, cap=5) == reference_centers(mu, cap=5)
    assert default_frostman_radii(mu) == reference_radii(mu)
    assert [a.tobytes() for a in mu._arrays] == [a.tobytes() for a in reference_arrays(mu)]


@settings(max_examples=100, deadline=None)
@given(unions(), st.randoms(use_true_random=False))
def test_shuffled_pieces_give_the_same_union(U, rng):
    pieces = list(U.pieces)
    rng.shuffle(pieces)
    V = IntervalUnion(pieces)
    assert V == U and V.pieces == reference_union(pieces)[1]
    assert_view(V)


@st.composite
def bad_piece_lists(draw):
    """A union's pieces, shuffled or not, with a reversed, out-of-space,
    overlapping or touching piece put in, or any piece."""
    pieces = list(draw(unions(min_size=2)).pieces)
    if draw(st.booleans()):
        draw(st.randoms(use_true_random=False)).shuffle(pieces)
    a, b = sorted(draw(st.lists(rationals, min_size=2, max_size=2)))
    kind = draw(st.sampled_from(["reversed", "outside", "overlap", "touch", "any"]))
    at = draw(st.integers(0, len(pieces)))
    if kind == "reversed" and a < b:
        a, b = b, a
    elif kind == "overlap" and pieces:
        p = draw(st.sampled_from(pieces))
        a, b = min(a, p[0]), max(b, p[0])
    elif kind == "touch" and pieces:
        # a piece starting where another ends, put right after it
        at = draw(st.integers(0, len(pieces) - 1))
        a, b = pieces[at][1], max(pieces[at][1], min(b, F(1)))
        at += 1
    pieces.insert(at, (a, b))
    return pieces


@settings(max_examples=150, deadline=None)
@given(bad_piece_lists())
def test_constructor_raises_the_errors_of_the_sorting_constructor(pieces):
    assert outcome(built_union, pieces) == outcome(reference_union, pieces)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(rationals, rationals), max_size=12), unions(min_size=1), rationals, rationals)
def test_integer_view_matches_the_pieces_on_every_path(intervals, U, x, y):
    lo, hi = min(x, y), max(x, y)
    sets = [
        IntervalUnion.from_intervals(intervals),
        U.map_onto((lo, hi if hi > lo else lo + 1)),
        U.affine(-3 * (abs(x) or 1), y),
        U.intersect_interval(lo, hi),
        IntervalUnion.from_json(U.to_json()),
    ]
    # the negative-scale affine image: its pieces reflected and sorted, as before
    neg = sets[2]
    fa = -3 * (abs(x) or 1)
    assert neg.pieces == tuple(sorted((fa * b + y, fa * a + y) for a, b in U.pieces))
    tower = parse_scheme("pi03:0.8:rows=1;(01);0")
    for V in sets:
        assert_view(V)
        assert StageReport.of(1, V) == reference_stage_report(1, V)
        if V.space[0] >= 0:  # tower stages lie in [0, 1]
            assert tower.report_of(1, V) == reference_report_of(tower, 1, V)
        if V.pieces:
            assert_measure_readings(natural_measure(V))


@pytest.mark.parametrize("spec", sorted(SPECS))
def test_scheme_stage_views_and_readings_equal_fraction_formulas(spec):
    scheme = parse_scheme(spec)
    for k in range(SPECS[spec] + 1):
        U = scheme.stage(k)
        assert_view(U)
        assert scheme.report_of(k, U) == reference_report_of(scheme, k, U)
        mu = natural_measure(U)
        assert mu.int_ends is U.int_ends
        assert_measure_readings(mu)


@st.composite
def touching_measures(draw):
    """Pieces that touch at shared endpoints, with atoms on them, in any order."""
    ends = sorted(draw(st.lists(rationals, min_size=2, max_size=12, unique=True)))
    pieces, k = [], 0
    while k + 1 < len(ends):
        pieces.append((ends[k], ends[k + 1]))
        if draw(st.booleans()):
            pieces.append((ends[k + 1], ends[k + 1]))
        k += draw(st.sampled_from([1, 2]))
    draw(st.randoms(use_true_random=False)).shuffle(pieces)
    raw = draw(st.lists(st.integers(1, 1000), min_size=len(pieces), max_size=len(pieces)))
    return PiecewiseUniformMeasure([(a, b, v / sum(raw)) for (a, b), v in zip(pieces, raw)])


@settings(max_examples=100, deadline=None)
@given(st.one_of(measures(), touching_measures()))
def test_measure_readings_equal_fraction_formulas(mu):
    assert [(F(l, mu.int_ends[0]), F(r, mu.int_ends[0])) for l, r in zip(*mu.int_ends[1:])] == [
        (a, b) for a, b, _ in mu.pieces
    ]
    assert all(b1 <= a2 for (_, b1, _), (a2, _, _) in zip(mu.pieces, mu.pieces[1:]))
    assert_measure_readings(mu)


@settings(max_examples=100, deadline=None)
@given(measures_and_balls())
def test_shuffled_measure_pieces_keep_exact_ball_masses(case):
    mu, x, r = case
    shuffled = PiecewiseUniformMeasure(reversed(mu.pieces))
    assert shuffled.pieces == mu.pieces
    assert shuffled.ball_mass(x, r) == mu.ball_mass(x, r) == reference_ball_mass(mu, x, r)


def reference_boxes(dimension: int, boxes) -> tuple:
    """BoxUnion pieces as built by hashing and sorting every input; contained boxes stay."""
    return tuple(sorted(dict.fromkeys(tuple((F(a), F(b)) for a, b in box) for box in boxes)))


small = st.builds(F, st.integers(-4, 4), st.integers(1, 4))
sides = st.builds(lambda a, b: (min(a, b), max(a, b)), small, small)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(sides, sides), max_size=12), st.booleans())
def test_box_union_equals_the_sorting_path(boxes, increasing):
    if increasing:  # the form radial_lift builds: distinct boxes in order
        boxes = sorted(set(boxes))
    assert BoxUnion(2, boxes).pieces == reference_boxes(2, boxes)


# -- integer stage builders and constructors -------------------------------
#
# The references below are the Fraction builders the integer numerators
# replaced: from_intervals, map_onto and affine, SAlphaScheme._refine, the
# FpScheme shrink and map steps, and the measure constructor.


def reference_from_intervals(intervals, space=(0, 1)) -> tuple:
    lo, hi = F(space[0]), F(space[1])
    clamped = []
    for a, b in intervals:
        fa, fb = max(F(a), lo), min(F(b), hi)
        if fa <= fb:
            clamped.append((fa, fb))
    clamped.sort(key=lambda p: p[0])
    merged: list[list[F]] = []
    for a, b in clamped:
        if merged and a <= merged[-1][1]:
            if b > merged[-1][1]:
                merged[-1][1] = b
        else:
            merged.append([a, b])
    return reference_union([(a, b) for a, b in merged], space=(lo, hi))


def reference_map_onto(U: IntervalUnion, target) -> tuple:
    lo, hi = F(target[0]), F(target[1])
    scale = hi - lo
    mapped = [(lo + a * scale, lo + b * scale) for a, b in U.pieces]
    return reference_union(mapped, space=(min(U.space[0], lo), max(U.space[1], hi)))


def reference_affine(U: IntervalUnion, a, t) -> tuple:
    fa, ft = F(a), F(t)
    if fa == 0:
        raise GeometryError("affine scale must be nonzero")
    ends = sorted((fa * U.space[0] + ft, fa * U.space[1] + ft))
    pieces = [tuple(sorted((fa * x + ft, fa * y + ft))) for x, y in U.pieces]
    return reference_union(pieces, space=(ends[0], ends[1]))


def built(U: IntervalUnion) -> tuple:
    assert_view(U)
    return U.space, U.pieces


@st.composite
def spaced_unions(draw):
    """A union in [0, 1], or in a wider or shifted space."""
    U = draw(unions())
    lo = min([F(0), *(a for a, _ in U.pieces)]) - draw(st.sampled_from([0, 0, 1, F(1, 3)]))
    hi = max([F(1), *(b for _, b in U.pieces)]) + draw(st.sampled_from([0, 0, 2, F(5, 7)]))
    return IntervalUnion(U.pieces, space=(lo, hi))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(rationals, rationals), max_size=12), st.sampled_from([(0, 1), (F(-1, 3), 2), (1, 1), (1, 0)]))
def test_from_intervals_equals_the_fraction_merge(intervals, space):
    got = outcome(lambda: built(IntervalUnion.from_intervals(intervals, space)))
    assert got == outcome(reference_from_intervals, intervals, space)


@settings(max_examples=150, deadline=None)
@given(spaced_unions(), rationals, rationals, st.sampled_from(["ordered", "reversed", "degenerate"]))
def test_map_onto_and_affine_equal_the_fraction_maps(U, x, y, kind):
    lo, hi = min(x, y), max(x, y)
    target = {"ordered": (lo, hi if hi > lo else lo + 1), "reversed": (hi + 1, lo), "degenerate": (x, x)}[kind]
    assert outcome(lambda: built(U.map_onto(target))) == outcome(reference_map_onto, U, target)
    for a in (x, -x, 3 * y + 1, F(0)):
        assert outcome(lambda: built(U.affine(a, y))) == outcome(reference_affine, U, a, y)


@settings(max_examples=150, deadline=None)
@given(bad_piece_lists(), st.sampled_from([(0, 1), (F(1, 4), F(3, 4)), (2, 1)]))
def test_integer_constructor_raises_the_errors_of_the_sorting_constructor(pieces, space):
    D = math.lcm(*(F(e).denominator for p in pieces for e in p))
    lefts, rights = [F(a) * D for a, _ in pieces], [F(b) * D for _, b in pieces]
    ints = [int(v) for v in lefts], [int(v) for v in rights]
    want = outcome(reference_union, pieces, space)
    assert outcome(lambda: built(IntervalUnion(pieces, space))) == want
    assert outcome(lambda: built(IntervalUnion._of_ints(3 * D, [3 * v for v in ints[0]], [3 * v for v in ints[1]], space))) == want


def reference_refine(G: int, pieces, ell: F) -> tuple[list, int]:
    parent_len = pieces[0][1] - pieces[0][0]
    slack = (parent_len - G * ell) / (G + 1)
    fine = min(ell, slack if slack > 0 else ell) / (8 * G)
    jbits = max(1, (math.ceil(1 / fine) - 1).bit_length())
    q = next_prime(2**jbits)
    half = ell / 2
    out = []
    for a, b in pieces:
        lo, hi = a + half, b - half
        span = hi - lo
        lo_idx = math.ceil(lo * q)
        hi_idx = math.floor(hi * q)
        for i in range(G):
            target = lo + span * F(i, G - 1) if G > 1 else lo + span / 2
            idx = min(max(round(target * q), lo_idx), hi_idx)
            c = F(idx, q)
            out.append((c - half, c + half))
    return out, q


def reference_salpha_stages(scheme: SAlphaScheme, k: int) -> tuple[list, list[int]]:
    stages, primes, ell = [[(F(0), F(1))]], [0], F(1)
    for _ in range(k):
        ell *= scheme._ratio
        pieces, q = reference_refine(scheme.branching, stages[-1], ell)
        stages.append(pieces)
        primes.append(q)
    return stages, primes


@pytest.mark.parametrize("alpha", [0, 0.5, 1, 2, 3])
@pytest.mark.parametrize("branching, k", [(3, 6), (2, 6), (4, 4)])
def test_salpha_stages_equal_the_fraction_refinement(alpha, branching, k):
    scheme = SAlphaScheme(alpha, branching)
    stages, primes = reference_salpha_stages(scheme, k)
    order = list(range(k + 1))  # stages built in a drawn order, each reading the memo for its parent
    random.Random(f"{alpha} {branching}").shuffle(order)
    got = {j: built(scheme.stage(j)) for j in order}
    assert [got[j] for j in range(k + 1)] == [reference_union(p) for p in stages]
    assert [scheme.stage_prime(j) for j in range(k + 1)] == primes
    fresh = SAlphaScheme(alpha, branching)
    assert [fresh.stage_prime(j) for j in order] == [primes[j] for j in order]
    assert scheme.stage(k) is scheme.stage(k)  # built once and kept


@st.composite
def refine_cases(draw):
    """A parent stage and a child length; its later pieces put target*q exactly
    halfway between two integers for every child, so round's tie rule decides."""
    G = draw(st.sampled_from([2, 3, 4]))
    L = F(1, draw(st.integers(6, 40)))
    ell = L * F(draw(st.integers(1, 99)), 100 * G)
    first = [(F(0), L)]
    q = reference_refine(G, first, ell)[1]
    half = ell / 2
    pieces, m = list(first), math.ceil((L + half) * q) + 1
    for _ in range(draw(st.integers(0, 6))):
        # lo = (2m+1)/(2q) and hi = (2m'+1)/(2q) with (G-1) | m' - m: every target is a tie
        m2 = m + (G - 1) * (math.ceil(ell * q) + draw(st.integers(-1, 3)))
        a, b = F(2 * m + 1, 2 * q) - half, F(2 * m2 + 1, 2 * q) + half
        if b > 1:
            break
        pieces.append((a, b))
        m = math.ceil((b + half) * q) + draw(st.integers(1, 9))
    if draw(st.booleans()):  # any other stage of that length range instead
        extra = draw(unions(min_size=2))
        pieces = [(a, b) for a, b in extra.pieces if b - a >= ell] or first
    return G, IntervalUnion(pieces), ell


@settings(max_examples=200, deadline=None)
@given(refine_cases())
def test_integer_refine_equals_the_fraction_refine(case):
    G, parent, ell = case
    scheme = SAlphaScheme(1.0, G)
    pieces, q = reference_refine(G, parent.pieces, ell)

    def refined():
        U, p = scheme._refine(parent, ell)
        return built(U), p

    assert outcome(refined) == outcome(lambda: (reference_union(pieces), q))


def test_refine_breaks_ties_to_even_centres():
    G, L, ell = 3, F(1, 8), F(1, 64)
    q = reference_refine(G, [(F(0), L)], ell)[1]
    m0 = math.ceil((L + ell / 2) * q) + 1
    ups = []
    for t in range(40, 44):  # children t/q apart, more than their length 1/64
        # lo = (2 m0 + 1)/(2q), hi = lo + 2t/q: the middle target*q is m0 + t + 1/2
        tie = (F(2 * m0 + 1, 2 * q) - ell / 2, F(2 * (m0 + 2 * t) + 1, 2 * q) + ell / 2)
        parent = IntervalUnion([(F(0), L), tie])
        middle = SAlphaScheme(1.0, G)._refine(parent, ell)[0].pieces[4]
        assert middle == reference_refine(G, parent.pieces, ell)[0][4]
        idx = (middle[0] + ell / 2) * q
        assert idx % 2 == 0 and idx in (m0 + t, m0 + t + 1)
        ups.append(idx - (m0 + t))
    assert sorted(set(ups)) == [0, 1]  # both directions of the tie rule occur


def reference_fp_stages(scheme: FpScheme, k: int) -> tuple[list[tuple], list]:
    """FpScheme's stages and shrink events by the Fraction shrink and the per-piece map_onto formula."""
    stages, events = [[(F(0), F(1))]], []
    base, depth = [(F(0), F(1))], 0
    for s in range(k):
        cur = stages[-1]
        if scheme.x.bit(s + 1) == 1:
            cap = shrink_cap(s, len(cur))
            nxt = []
            for a, b in cur:
                half = min(b - a, cap) / 2
                c = (a + b) / 2
                nxt.append((c - half, c + half))
            base, depth = nxt, 0
            events.append((s, len(cur), cap))
        else:
            depth += 1
            unit = scheme._sal.stage(depth).pieces
            nxt = [(a + u * (b - a), a + v * (b - a)) for a, b in base for u, v in unit]
        stages.append(nxt)
    return [reference_union(p) for p in stages], events


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([0.3, 0.5, 0.8, 1.0]), st.lists(st.integers(0, 1), max_size=6),
       st.sampled_from([(0,), (1,), (0, 1)]), st.integers(0, 5), st.data())
def test_fp_stages_equal_the_fraction_shrink_and_map(p, prefix, period, k, data):
    x = BitSequence(prefix, period)
    stages, events = reference_fp_stages(FpScheme(p, x), k)
    scheme = FpScheme(p, x)  # fresh: no stage of it or of its S_alpha unit is built yet
    order = data.draw(st.permutations(range(k + 1)), label="build order")
    got = {j: built(scheme.stage(j)) for j in order}
    assert [got[j] for j in range(k + 1)] == stages
    assert scheme.shrink_events(k) == events


def reference_measure(pieces) -> tuple:
    """The measure constructor's pieces as built by Fraction compares, or its error."""
    norm = []
    for a, b, w in pieces:
        fa, fb = F(a), F(b)
        if fa > fb:
            raise MeasureError("reversed support interval")
        if w <= 0:
            raise MeasureError("weights must be positive")
        norm.append((fa, fb, float(w)))
    if any(a2 < b1 for (_, b1, _), (a2, _, _) in zip(norm, norm[1:])):
        norm.sort(key=lambda p: (p[0], p[1]))
        for (a1, b1, _), (a2, b2, _) in zip(norm, norm[1:]):
            if a2 < b1:
                raise MeasureError(f"support pieces [{a1}, {b1}] and [{a2}, {b2}] overlap")
    total = math.fsum(w for _, _, w in norm)
    if abs(total - 1.0) > 1e-12:
        raise MeasureError(f"weights sum to {total}, not 1")
    return tuple(norm)


def measure_outcome(build, *args):
    try:
        return build(*args)
    except MeasureError as e:
        return f"MeasureError: {e}"


@st.composite
def bad_measure_pieces(draw):
    """A measure's pieces, shuffled or not, with a reversed, weightless,
    overlapping or touching piece put in, or any piece."""
    mu = draw(st.one_of(measures(), touching_measures()))
    pieces = [(a, b, w) for a, b, w in mu.pieces]
    if draw(st.booleans()):
        draw(st.randoms(use_true_random=False)).shuffle(pieces)
    a, b = sorted(draw(st.lists(rationals, min_size=2, max_size=2)))
    kind = draw(st.sampled_from(["reversed", "weightless", "overlap", "touch", "any", "none"]))
    w = draw(st.sampled_from([0.25, 0.0, -1.0])) if kind == "weightless" else 0.25
    if kind == "reversed" and a < b:
        a, b = b, a
    elif kind == "overlap":
        p = draw(st.sampled_from(pieces))
        a, b = min(a, p[0]), max(b, p[0], p[1])
    elif kind == "touch":
        p = draw(st.sampled_from(pieces))
        a, b = p[1], p[1] + abs(b - a)
    if kind != "none":
        pieces = [(x, y, v * 0.75) for x, y, v in pieces]
        pieces.insert(draw(st.integers(0, len(pieces))), (a, b, w))
    return pieces


@settings(max_examples=200, deadline=None)
@given(bad_measure_pieces())
def test_measure_constructor_equals_the_fraction_checks(pieces):
    def build(pieces):
        mu = PiecewiseUniformMeasure(pieces)
        D, lefts, rights = mu.int_ends
        assert [(F(l, D), F(r, D)) for l, r in zip(lefts, rights)] == [(a, b) for a, b, _ in mu.pieces]
        return mu.pieces

    assert measure_outcome(build, pieces) == measure_outcome(reference_measure, pieces)


def test_interval_reports_in_closed_form_equal_the_grid_partition():
    scheme, U = IntervalScheme(), IntervalUnion.full()
    for k in range(12):
        assert scheme.report_of(k, U) == reference_report_of(scheme, k, U)


@st.composite
def tied_frostman_cases(draw):
    """Unequal weights on lattice pieces (gapped, touching or atoms), with the
    balls that cover whole runs of m pieces: for each m their bounds and masses
    tie up to ulps, where pruning could skip the true max."""
    n = draw(st.integers(2, 30))
    step, length = draw(st.sampled_from([(2, 1), (1, 1), (1, 0)]))
    N = draw(st.integers(1, 97))
    raw = draw(st.lists(st.integers(1, draw(st.sampled_from([3, 1000]))), min_size=n, max_size=n))
    mu = PiecewiseUniformMeasure([(F(step * k, N), F(step * k + length, N), v / sum(raw)) for k, v in enumerate(raw)])
    centers, radii = [], []
    for m in draw(st.lists(st.integers(1, n), min_size=1, max_size=3, unique=True)):
        extent = F(step * (m - 1) + length, N)
        radii.append(extent / 2 if extent else F(1, 10 * N))
        centers += [F(step * i, N) + extent / 2 for i in range(n - m + 1)]
    draw(st.randoms(use_true_random=False)).shuffle(centers)
    return mu, centers, radii + draw(st.lists(positive_rationals, max_size=2))


# weights 3, 2, 3, 2, 3 over 13: the two 4-piece runs tie at the bound, and
# their masses differ in the last bit, so a pruning slack of 0 misses the max
TIED = (PiecewiseUniformMeasure([(F(2 * k, 10), F(2 * k + 1, 10), v / 13) for k, v in enumerate([3, 2, 3, 2, 3])]),
        [F(11, 20), F(7, 20)], [F(7, 20)])


@settings(max_examples=300, deadline=None)
@given(st.one_of(tied_frostman_cases(), frostman_cases()))
@example(TIED)
def test_pruned_sup_equals_max_over_every_centre(case):
    mu, centers, radii = case
    assert mu.max_ball_masses(centers, radii) == [max(mu.ball_mass(c, r) for c in centers) for r in radii]


@st.composite
def float_edge_frostman_cases(draw):
    """What the sup's float brackets cannot resolve: clusters of pieces and atoms
    narrower than the float spacing where they sit (widths 2^-70 near 1/3),
    denominators above 300 bits, and balls whose ends lie within a few ulps of
    piece ends or between the pieces of a cluster."""
    base = draw(st.sampled_from([F(1, 3), F(1, 3**200), F(-2, 3) + F(1, 2**310), F(5, 7)]))
    unit = draw(st.sampled_from([F(1, 2**70), F(1, 2**40), F(1, 7**120)]))
    pieces, at = ([(F(2), F(3))] if draw(st.booleans()) else []), base
    for _ in range(draw(st.integers(1, 10))):
        at += draw(st.integers(0, 3)) * unit  # touching or gapped
        pieces.append((at, at + draw(st.sampled_from([0, 1, 2])) * unit))  # atoms among them
        at = pieces[-1][1]
    raw = draw(st.lists(st.integers(1, 1000), min_size=len(pieces), max_size=len(pieces)))
    mu = PiecewiseUniformMeasure([(a, b, v / sum(raw)) for (a, b), v in zip(pieces, raw)])
    ends = [e for p in pieces for e in p]
    ball_end = st.one_of(
        st.sampled_from(ends),
        st.builds(lambda e, k: e + k * F(math.ulp(float(e))), st.sampled_from(ends), st.integers(-3, 3)),
        st.builds(lambda e, k: e + k * unit / 3, st.sampled_from(ends), st.integers(-4, 4)),
    )
    balls = draw(st.lists(st.tuples(ball_end, ball_end), min_size=1, max_size=5))
    return mu, [(a + b) / 2 for a, b in balls], [abs(b - a) / 2 or unit / 5 for a, b in balls]


@settings(max_examples=300, deadline=None)
@given(float_edge_frostman_cases())
def test_sup_brackets_hold_below_the_float_spacing(case):
    mu, centers, radii = case
    assert mu.max_ball_masses(centers, radii) == [max(mu.ball_mass(c, r) for c in centers) for r in radii]


@st.composite
def survivor_kind_cases(draw):
    """Gapped pieces [2k, 2k+1]/N and radii m/N for even m <= M, with centres
    (2j + 3/2)/N, whose balls end in gaps (their masses come from the masked row
    max), centres (2j + 1/2)/N, whose balls end inside pieces (`_mass`), or
    both.  The centres keep every ball's ends inside [0, 2n - 1/2]; under equal
    weights every ball of one radius covers the same mass, so every centre
    survives."""
    n = draw(st.integers(3, 24))
    M = 2 * draw(st.integers(1, (n - 1) // 2))
    N = draw(st.integers(1, 97))
    raw = [1] * n if draw(st.booleans()) else draw(st.lists(st.integers(1, 1000), min_size=n, max_size=n))
    mu = PiecewiseUniformMeasure([(F(2 * k, N), F(2 * k + 1, N), v / sum(raw)) for k, v in enumerate(raw)])
    kind = draw(st.sampled_from(["gap", "mass", "mix"]))
    js = range(M // 2, n - M // 2)
    centers = [F(4 * j + 3, 2 * N) for j in js if kind != "mass"] + [F(4 * j + 1, 2 * N) for j in js if kind != "gap"]
    draw(st.randoms(use_true_random=False)).shuffle(centers)
    radii = [F(m, N) for m in draw(st.lists(st.sampled_from(range(2, M + 1, 2)), min_size=1, max_size=3, unique=True))]
    return mu, kind, centers, radii, len(set(raw)) == 1


@settings(max_examples=300, deadline=None)
@given(survivor_kind_cases())
def test_one_pass_sup_over_gap_mass_and_mixed_survivors(case):
    mu, kind, centers, radii, equal = case
    want = [max(mu.ball_mass(c, r) for c in centers) for r in radii]
    calls, kernel = [], mu._mass
    mu._mass = lambda *args: calls.append(args) or kernel(*args)
    assert mu.max_ball_masses(centers, radii) == want
    if kind == "gap":
        assert not calls
    elif equal:  # every ball survives: `_mass` runs exactly on the balls ending inside pieces
        share = len(centers) if kind == "mass" else len(centers) // 2
        assert len(calls) == share * len(radii)


def test_pruned_sup_of_no_centre_raises_as_max_does():
    mu = PiecewiseUniformMeasure([(F(0), F(1), 1.0)])
    with pytest.raises(ValueError, match=r"max\(\) arg is an empty sequence"):
        mu.max_ball_masses([], [F(1, 2)])
    with pytest.raises(ValueError, match=r"max\(\) arg is an empty sequence"):
        mu._max_ball_masses(2, [], [1])  # the integer sup the report calls
    assert mu.max_ball_masses([], []) == [] == mu._max_ball_masses(2, [], [])


def reference_log(q: F) -> float:
    return math.log(float(q)) if float(q) > 0 else math.log(q.numerator) - math.log(q.denominator)


def reference_frostman_fit(mu: PiecewiseUniformMeasure) -> DecayFit:
    """The default Frostman fit on Fractions: the reference centres and radii,
    per-ball reference masses, and the logs of the reduced radii."""
    centers, xs, ys = reference_centers(mu), [], []
    for r in sorted(reference_radii(mu)):
        sup = max(reference_ball_mass(mu, c, r) for c in centers)
        if sup > 0.0:
            xs.append(reference_log(r))
            ys.append(math.log(sup))
    slope, intercept, r2 = _least_squares(xs, ys)
    return DecayFit(clamp_dimension(slope), intercept, r2, (min(xs), max(xs)), len(xs))


@st.composite
def underflow_measures(draw):
    """Pieces and atoms within a few units of 2^-1100 or 3^-700 of a point, so the
    radii span / (D 2^(2+i)) have floats that underflow to 0; one atom alone
    has span 0."""
    unit = draw(st.sampled_from([F(1, 2**1100), F(1, 3**700), F(5, 7**400)]))
    at, pieces = draw(st.sampled_from([F(0), F(1, 3), F(-2, 5)])), []
    for _ in range(draw(st.integers(1, 6))):
        at += draw(st.integers(0, 3)) * unit
        pieces.append((at, at + draw(st.sampled_from([0, 1, 2])) * unit))
        at = pieces[-1][1]
    raw = draw(st.lists(st.integers(1, 1000), min_size=len(pieces), max_size=len(pieces)))
    return PiecewiseUniformMeasure([(a, b, v / sum(raw)) for (a, b), v in zip(pieces, raw)])


ATOM = PiecewiseUniformMeasure([(F(2, 7), F(2, 7), 1.0)])


@settings(max_examples=150, deadline=None)
@given(st.one_of(measures(), touching_measures(), underflow_measures(), many_piece_measures()))
@example(ATOM)
def test_integer_frostman_sup_path_equals_the_fraction_fit(mu):
    """The report's integer centres, radii and sup give the public Fraction fit and its reference."""
    fit = dimension._frostman_fit(mu, *dimension._frostman_grid(mu))
    assert fit == frostman_fit(mu, default_frostman_centers(mu), default_frostman_radii(mu))
    if len(mu.weights) <= 40:  # the reference masses run on Fractions, ball by ball
        assert fit == reference_frostman_fit(mu)


def test_integer_frostman_sup_reads_underflowing_radii_from_reduced_ratios():
    mu = PiecewiseUniformMeasure([(F(0), F(1, 2**1100), 0.5), (F(3, 2**1100), F(4, 2**1100), 0.5)])
    E, cn, rn = dimension._frostman_grid(mu)
    assert all(r / E == 0.0 for r in rn)
    fit = dimension._frostman_fit(mu, E, cn, rn)
    assert fit.scale_range[1] == reference_log(F(4, 2**1100) / 4) and fit == reference_frostman_fit(mu)


# -- endpoints stored as integers ------------------------------------------
#
# The references below are the code the integer-only storage replaced: the
# union that built every endpoint Fraction at construction and read them in
# its readers, the Fraction one-sided distance, the Fraction grid partition,
# and the Fraction Jarnik and gcantor stage builders.


class EagerUnion:
    """The union as stored before: Fraction pieces built at construction
    (`_of_ints` made Fraction(l, D) of every numerator), read by ==, hash,
    repr and to_json."""

    def __init__(self, pieces, space):
        self.space = (F(space[0]), F(space[1]))
        self.pieces = tuple(sorted((F(a), F(b)) for a, b in pieces))

    @classmethod
    def of_ints(cls, D, lefts, rights, space) -> "EagerUnion":
        return cls([(F(l, D), F(r, D)) for l, r in zip(lefts, rights)], space)

    def __eq__(self, other) -> bool:
        return self.space == other.space and self.pieces == other.pieces

    def __hash__(self) -> int:
        return hash((self.space, self.pieces))

    def __repr__(self) -> str:
        inner = " u ".join(f"[{a},{b}]" for a, b in self.pieces[:4])
        if len(self.pieces) > 4:
            inner += f" ... ({len(self.pieces)} pieces)"
        return f"IntervalUnion({inner or 'empty'})"

    def to_json(self) -> str:
        return json.dumps(
            {
                "space": [format_fraction(self.space[0]), format_fraction(self.space[1])],
                "pieces": [[format_fraction(a), format_fraction(b)] for a, b in self.pieces],
            }
        )


@contextmanager
def of_ints_calls():
    """Every union `IntervalUnion._of_ints` returns inside the block, with the
    eager union of the same arguments."""
    calls = []
    original = IntervalUnion.__dict__["_of_ints"]

    def spy(cls, D, lefts, rights, space=(0, 1)):
        want = EagerUnion.of_ints(D, list(lefts), list(rights), space)
        U = original.__func__(cls, D, lefts, rights, space)
        calls.append((U, want))
        return U

    IntervalUnion._of_ints = classmethod(spy)
    try:
        yield calls
    finally:
        IntervalUnion._of_ints = original


def assert_reads_like_the_eager_union(calls) -> None:
    assert calls
    for U, want in calls:
        with pytest.raises(AttributeError):
            U._pieces  # nothing read the Fraction pieces yet
        assert repr(U) == repr(want) and U.to_json() == want.to_json()
        assert U.pieces == want.pieces and U.pieces is U.pieces
        twin = IntervalUnion(want.pieces, want.space)  # the same set built another way
        assert U == twin and hash(U) == hash(twin)
    for (U, want), (V, other) in zip(calls, calls[1:] + calls[:1]):
        assert (U == V) == (want == other)


@settings(max_examples=60, deadline=None)
@given(unions(), st.lists(st.tuples(rationals, rationals), max_size=12), rationals, rationals, grids)
def test_of_ints_paths_read_like_the_eager_union(U, intervals, x, y, g):
    lo, hi = min(x, y), max(x, y)
    with of_ints_calls() as calls:
        IntervalUnion.from_intervals(intervals)
        IntervalUnion.from_intervals(intervals, (min(lo, 0), max(hi, 1)))
        U.map_onto((lo, hi if hi > lo else lo + 1))
        U.affine(-3 * (abs(x) or 1), y)
        U.affine(x or 1, y)
        simplex_partition_1d(U, g)
        IntervalUnion._merged([U.int_ends, IntervalUnion.from_json(U.to_json()).int_ends], (F(0), F(1)))
    assert_reads_like_the_eager_union(calls)


@pytest.mark.parametrize("spec", sorted(set(SPECS) - {"interval"}))  # its stage is the constructor's full()
def test_stage_builders_read_like_the_eager_union(spec):
    with of_ints_calls() as calls:
        scheme = parse_scheme(spec)  # fresh, so every stage is built inside the block
        for k in range(SPECS[spec] + 1):
            scheme.stage(k)
        if spec.startswith("jarnik"):
            jarnik_stage(1.0, 5)  # past the scheme's stage memo
        if spec.startswith("salpha"):
            SAlphaScheme(0.5, 2).stage(4)  # a second alpha and branching
    assert_reads_like_the_eager_union(calls)


def fraction_count(monkeypatch: pytest.MonkeyPatch) -> list[int]:
    """A counter of Fraction constructions from here on."""
    count = [0]
    new = F.__new__

    def counting(cls, *args, **kwargs):
        count[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", counting)
    return count


@settings(max_examples=40, deadline=None)
@given(unions(min_size=1), st.randoms(use_true_random=False))
def test_checked_constructors_make_no_fraction(U, rng):
    D, lefts, rights = U.int_ends
    order = list(range(len(lefts)))
    rng.shuffle(order)
    space = U.space
    with pytest.MonkeyPatch.context() as m:
        count = fraction_count(m)
        V = IntervalUnion._of_ints(6 * D, [6 * lefts[i] for i in order], [6 * rights[i] for i in order], space)
        mu = natural_measure(V)
        made = count[0]
    assert made == 0
    assert V == U and mu.int_ends is V.int_ends


def test_stage_builders_make_no_fraction_per_piece():
    jarnik = jarnik_stage
    gcantor = GeneralizedCantorScheme.for_dimension(0.5)
    gcantor.length(10)  # its length schedule is Fraction arithmetic, once per stage
    with pytest.MonkeyPatch.context() as m:
        count = fraction_count(m)
        U = jarnik(1.0, 6)
        per_prime = count[0]
        V = gcantor.stage(10)
        per_stage = count[0] - per_prime
    primes = len(primes_in_range(64, 128))
    assert len(U) > 10 * primes and per_prime <= 2 * primes  # one radius per prime
    assert len(V) == 2**10 and per_stage <= 4 * 10


def reference_one_sided(src: IntervalUnion, dst: IntervalUnion) -> F:
    """sup over src of d(., dst): Fraction candidates, Fraction containment and distance scans."""
    candidates = [e for piece in src.pieces for e in piece]
    for (_, b1), (a2, _) in zip(dst.pieces, dst.pieces[1:]):
        mid = (b1 + a2) / 2
        if any(a <= mid <= b for a, b in src.pieces):
            candidates.append(mid)
    return max(reference_point_distance(dst, x) for x in candidates)


@st.composite
def unrelated_unions(draw):
    """Two unions whose endpoints have coprime denominators, up to a Mersenne prime."""
    p, q = draw(st.lists(st.sampled_from([3, 7, 11, 2**31 - 1, 2**61 - 1]), min_size=2, max_size=2, unique=True))
    over = lambda d: st.builds(lambda n, e: F(n % (d**e + 1), d**e), st.integers(0, 2**200), st.integers(1, 6))
    return [draw(unions(over(p))), draw(unions(over(q)))]


@settings(max_examples=200, deadline=None)
@given(st.one_of(related_unions(2), unrelated_unions()))
def test_integer_metric_equals_the_fraction_metric(pair):
    A, B = pair
    if A.is_empty or B.is_empty:
        assert hausdorff_metric(A, B).value == reference_hausdorff(A, B)
        return
    a, b = reference_one_sided(A, B), reference_one_sided(B, A)
    assert one_sided_distance(A, B) == a and one_sided_distance(B, A) == b
    assert hausdorff_metric(A, B).value == max(a, b)


def test_integer_metric_on_atoms_and_gap_midpoints():
    # B's gap (1/4, 3/4) has its midpoint at A's atom; A's piece ends touch B's gap ends
    A, B = IntervalUnion([(F(0), F(1, 4)), (F(1, 2), F(1, 2)), (F(3, 4), F(1))]), IntervalUnion([(0, F(1, 4)), (F(3, 4), 1)])
    assert one_sided_distance(A, B) == F(1, 4) == reference_one_sided(A, B)
    assert one_sided_distance(B, A) == 0 == reference_one_sided(B, A)
    C = IntervalUnion([(F(1, 3), F(2, 3))])  # covers B's gap midpoint from one side to the other
    assert one_sided_distance(C, B) == F(1, 4) and one_sided_distance(B, C) == F(1, 3)
    with pytest.raises(GeometryError):
        one_sided_distance(A, IntervalUnion.empty())


def reference_simplex_partition(A: IntervalUnion, grid) -> list[IntervalUnion]:
    """The Fraction grid partition: cells cut from the Fraction pieces, a
    cell contained in the previous output skipped by `subset_of`."""
    g = F(grid)
    if A.is_empty:
        return []
    pieces = A.pieces
    rights = [b for _, b in pieces]
    out: list[IntervalUnion] = []
    bounds = [n * g for n in range(pieces[0][0] // g, rights[-1] // g + 2)]
    for c0, c1 in zip(bounds, bounds[1:]):
        k = bisect.bisect_left(rights, c0)
        cut = []
        while k < len(pieces) and pieces[k][0] <= c1:
            a, b = pieces[k]
            cut.append((max(a, c0), min(b, c1)))
            k += 1
        cell = IntervalUnion(cut, space=A.space)
        if cut and not (out and cell.subset_of(out[-1])):
            out.append(cell)
    return out


@settings(max_examples=150, deadline=None)
@given(unions(), grids)
def test_integer_partition_equals_the_fraction_partition(A, g):
    assert simplex_partition_1d(A, g) == reference_simplex_partition(A, g)
    # atoms on grid lines: the cut {c0} after a cell ending at c0 is skipped, a first one kept
    B = IntervalUnion([(F(0), F(0)), (F(1, 4), F(1, 2)), (F(3, 4), F(3, 4))])
    assert simplex_partition_1d(B, F(1, 4)) == reference_simplex_partition(B, F(1, 4))


def reference_jarnik(alpha: float, j: int) -> tuple:
    """Block j from Fraction intervals [p/q - r, p/q + r] merged as Fractions."""
    intervals = []
    for q in primes_in_range(2**j, 2 ** (j + 1)):
        r = _radius(q, alpha)
        for p in range(q + 1):
            c = F(p, q)
            intervals.append((c - r, c + r))
    return reference_from_intervals(intervals)


@pytest.mark.parametrize("alpha", [0, 0.5, 1, 2])
def test_integer_jarnik_blocks_equal_the_fraction_blocks(alpha):
    for j in range(1, 7):
        assert built(jarnik_stage(float(alpha), j)) == reference_jarnik(alpha, j)


def reference_gcantor_stages(scheme: GeneralizedCantorScheme, k: int) -> list[tuple]:
    """Stages 0..k from Fraction children [a, a + ell] and [b - ell, b], merged as Fractions."""
    stages = [[(F(0), F(1))]]
    for j in range(1, k + 1):
        ell = scheme.length(j)
        stages.append([c for a, b in stages[-1] for c in ((a, a + ell), (b - ell, b))])
    return [reference_from_intervals(s) for s in stages]


@pytest.mark.parametrize("p", [0.3, 0.5, 0.7])
def test_integer_gcantor_stages_equal_the_fraction_stages(p):
    scheme = GeneralizedCantorScheme.for_dimension(p)
    want = reference_gcantor_stages(GeneralizedCantorScheme.for_dimension(p), 10)
    assert [built(scheme.stage(k)) for k in range(11)] == want
    # a schedule that is not dyadic, clamped at half the parent length from stage 2 on
    thirds = GeneralizedCantorScheme(lambda k: F(1, 3) if k == 1 else F(1, 5**k))
    assert [built(thirds.stage(k)) for k in range(6)] == reference_gcantor_stages(thirds, 5)


@pytest.mark.parametrize("spec", sorted(SPECS))
def test_reports_never_read_the_fraction_pieces(spec, monkeypatch):
    want = salem_report(parse_scheme(spec), SPECS[spec] + 1, seed=3)

    def unread(self):
        raise AssertionError("a report read the Fraction pieces")

    monkeypatch.setattr(IntervalUnion, "pieces", property(unread))
    monkeypatch.setattr(PiecewiseUniformMeasure, "pieces", property(unread))
    got = salem_report(parse_scheme(spec), SPECS[spec] + 1, seed=3)
    assert repr(got) == repr(want)


@st.composite
def adjacent_balls(draw):
    """A measure, a point x carrying no atom, and the closed balls [lo, x] and [x, hi]."""
    mu = draw(st.one_of(measures(), touching_measures()))
    ends = [e for a, b, _ in mu.pieces for e in (a, b)]
    atoms = {a for a, b, _ in mu.pieces if a == b}
    x = draw(st.one_of(st.sampled_from(ends), rationals, st.builds(lambda a, b: (a + b) / 2, st.sampled_from(ends), st.sampled_from(ends))))
    assume(x not in atoms)
    lo = x - draw(st.one_of(positive_rationals, st.sampled_from([abs(x - e) for e in ends if e != x] or [F(1)])))
    hi = x + draw(st.one_of(positive_rationals, st.sampled_from([abs(x - e) for e in ends if e != x] or [F(1)])))
    return mu, lo, x, hi


# the halves of [0, 43/16] at 35/16 sum 1.5 ulps of 1 away from the whole
SPLIT_OFF_BY_1_5_ULP = (
    PiecewiseUniformMeasure([(F(a, 16), F(b, 16), v / 3279) for a, b, v in [
        (3, 9, 889), (11, 15, 647), (17, 17, 383), (21, 24, 697), (34, 37, 617), (42, 42, 46)]]),
    F(0), F(35, 16), F(43, 16),
)


@settings(max_examples=200, deadline=None)
@given(adjacent_balls())
@example(SPLIT_OFF_BY_1_5_ULP)
def test_ball_mass_is_additive_on_adjacent_balls(case):
    """mass[lo, x] + mass[x, hi] = mass[lo, hi] when x carries no atom, up to rounding.

    Each mass is at most 5 roundings of numbers below 2 (the prefix-sum
    difference, and a division and an addition per boundary piece), the
    sum one more, and the prefix sums telescope except for one accumulation
    step at the piece split at x: 17 half-ulps of 1 in all.  Measured: up
    to 1.5 ulps of 1 (SPLIT_OFF_BY_1_5_ULP), so one ulp is not a bound.
    """
    mu, lo, x, hi = case
    mass = lambda a, b: mu.ball_mass((a + b) / 2, (b - a) / 2)
    assert abs(mass(lo, x) + mass(x, hi) - mass(lo, hi)) <= 8.5 * math.ulp(1.0)



# -- geometry queries on integers ------------------------------------------
#
# The references below are the code the integer queries replaced: the
# radial lift that built a box per kept cell, the lattice scan of
# `residue_system`, the Gaussian blocks keyed on Fraction centres,
# `from_json` through the Fraction string parser, and `next_prime` by
# trial division alone.


def reference_radial_lift(A: IntervalUnion, res: F) -> tuple:
    """The pieces of the radial lift as built box by box, with the lattice test inlined."""
    D, lefts, rights = A.int_ends
    den = (D * res.numerator) ** 2
    kept = [(max(l, 0) * res.denominator, r * res.denominator) for l, r in zip(lefts, rights) if r >= 0]
    floors = [b * b // den for _, b in kept]
    ceils = [-(a * a // -den) for a, _ in kept]
    n = math.ceil(1 / res)
    cols = []
    for i in range(-n, n):
        m = i if i >= 0 else -i - 1
        cols.append(((i * res, (i + 1) * res), m * m, (m + 1) * (m + 1)))
    boxes = []
    for x, lx, hx in cols:
        for y, ly, hy in cols:
            k = bisect.bisect_left(floors, lx + ly)
            if k < len(floors) and hx + hy >= ceils[k]:
                boxes.append((x, y))
    return BoxUnion(2, boxes).pieces


@settings(max_examples=40, deadline=None)
@given(radial_cases())
def test_radial_report_counts_equal_the_any_rule(case):
    A, _ = case
    expected = [StageReport(j, len(reference_radial_cover(A, F(1, 2**j))), F(1, 2**j), F(1, 2**j)) for j in range(1, 5)]
    assert radial_reports(A, range(1, 5)) == expected


@st.composite
def signed_radial_cases(draw, resolutions=(F(1, 2), F(1, 4), F(1, 8), F(1, 16), F(1, 3), F(3, 16))):
    """A union in (-1, 1), pieces below 0 and across it among them, with ends often on +-k*res."""
    res = draw(st.sampled_from(resolutions))
    grid = [s * k * res for k in range(math.ceil(1 / res) + 1) if k * res < 1 for s in (1, -1)]
    signed = st.builds(lambda x, s: s * x, unit_rationals, st.sampled_from([1, -1])).filter(lambda x: -1 < x < 1)
    ends = sorted(set(draw(st.lists(st.one_of(signed, st.sampled_from(grid)), max_size=10))))
    pieces, k = [], 0
    while k < len(ends):
        if k + 1 < len(ends) and draw(st.booleans()):
            pieces.append((ends[k], ends[k + 1]))
            k += 2
        else:
            pieces.append((ends[k], ends[k]))
            k += 1
    return IntervalUnion(pieces, space=(-1, 1)), res


@settings(max_examples=100, deadline=None)
@given(signed_radial_cases())
def test_radial_lift_and_counts_equal_the_box_by_box_lift(case):
    A, res = case
    expected = reference_radial_lift(A, res)
    assert radial_lift(A, res).pieces == expected
    if res.numerator == 1 and res.denominator & (res.denominator - 1) == 0:
        j = res.denominator.bit_length() - 1
        assert radial_reports(A, [j])[0].piece_count == len(expected)


@pytest.mark.parametrize("call", [
    lambda: radial_lift(IntervalUnion([(0, 1)]), 0),
    lambda: radial_lift(IntervalUnion([(0, 1)]), F(-1, 4)),
], ids=["lift-zero", "lift-negative"])
def test_radial_paths_keep_their_errors(call):
    with pytest.raises(ConstructionError):
        call()


def reference_radial_cells(A: IntervalUnion, res: F) -> list[tuple[int, int]]:
    """The (i, j) in [-n, n)², i then j, whose cell [i res, (i+1) res] x [j res, (j+1) res] has a
    squared norm range meeting that of a radius piece clipped to [0, inf), in Fractions cell by cell."""
    radii = [(max(a, F(0)) ** 2, b * b) for a, b in A.pieces if b >= 0]

    def squares(i):  # the least and greatest x² over [i res, (i+1) res]
        x0, x1 = i * res, (i + 1) * res
        return (F(0) if x0 <= 0 <= x1 else min(x0 * x0, x1 * x1)), max(x0 * x0, x1 * x1)

    n = math.ceil(1 / res)
    return [(i, j) for i in range(-n, n) for j in range(-n, n)
            if any(squares(i)[0] + squares(j)[0] <= b2 and squares(i)[1] + squares(j)[1] >= a2 for a2, b2 in radii)]


# dyadic cell sides, and non-dyadic ones whose grid lines fall between the dyadic ones
PLANAR_RESOLUTIONS = (F(1, 2), F(1, 8), F(1, 16), F(1, 32), F(1, 10), F(1, 3), F(2, 7), F(2, 3))


@settings(max_examples=60, deadline=None)
@given(signed_radial_cases(PLANAR_RESOLUTIONS))
def test_planar_radial_quadrant_equals_the_per_cell_test(case):
    """The quadrant walk, reflected, keeps exactly the cells of the per-cell test, in (i, j) order."""
    A, res = case
    cells = reference_radial_cells(A, res)
    _, rows = _radial_quadrant(A, res)
    n, m = len(rows), lambda i: max(i, -1 - i)
    assert all(row == sorted(set(row)) for row in rows)
    assert set(cells) == {(i, j) for i in range(-n, n) for j in range(-n, n) if m(j) in rows[m(i)]}
    side = lambda i: (i * res, (i + 1) * res)
    assert radial_lift(A, res).pieces == tuple((side(i), side(j)) for i, j in cells)


@settings(max_examples=60, deadline=None)
@given(signed_radial_cases(PLANAR_RESOLUTIONS), st.integers(1, 5))
def test_planar_radial_reports_count_the_lift(case, j):
    A, _ = case
    cell = F(1, 2**j)
    assert radial_reports(A, [j]) == [StageReport(j, len(radial_lift(A, cell)), cell, cell)]


def reference_residue_system(q: GaussianInt) -> list[tuple[int, int]]:
    """The (x, y) of every lattice point of the box |x|, |y| <= |a| + |b| in the parallelogram, x then y."""
    n, bound = norm(q), abs(q.a) + abs(q.b)
    out = []
    for x in range(-bound, bound + 1):
        for y in range(-bound, bound + 1):
            u, v = q.a * x + q.b * y, -q.b * x + q.a * y
            if 0 <= u < n and 0 <= v < n:
                out.append((x, y))
    return out


def test_residue_system_equals_the_lattice_scan_in_order():
    for a in range(-9, 10):
        for b in range(-9, 10):
            if a or b:
                q = GaussianInt(a, b)
                assert [(r.a, r.b) for r in residue_system(q)] == reference_residue_system(q), q


def test_residue_pairs_equal_the_lattice_scan_for_every_small_q():
    """Every q != 0 with |a|, |b| <= 40, axes and negative parts included; the scan
    runs in numpy over the same box, points in the same x-then-y order."""
    for a in range(-40, 41):
        for b in range(-40, 41):
            if a or b:
                n, s = a * a + b * b, abs(a) + abs(b)
                x, y = np.meshgrid(np.arange(-s, s + 1), np.arange(-s, s + 1), indexing="ij")
                u, v = a * x + b * y, a * y - b * x
                inside = (0 <= u) & (u < n) & (0 <= v) & (v < n)
                got = np.fromiter(chain.from_iterable(_residue_pairs(a, b)), dtype=np.int64)
                assert np.array_equal(got, np.stack([x[inside], y[inside]], axis=1).ravel()), (a, b)


def reference_gaussian_block_reports(alpha: float, blocks: range) -> list[StageReport]:
    """Per-block reports from Fraction centres of the scanned residues, smaller half kept per centre."""
    out = []
    for j in blocks:
        centers, halves = {}, []
        for q in gaussian_primes_norm_range(4**j, 4 ** (j + 1)):
            n = norm(q)
            if float(alpha).is_integer() and (2 + int(alpha)) % 2 == 0:
                half = F(1, n ** ((2 + int(alpha)) // 2))
            else:
                half = _dyadic_pow(float(n), -(2.0 + alpha) / 2.0)
            halves.append(half)
            for x, y in reference_residue_system(q):
                c = normalized_center(q, GaussianInt(x, y))
                centers[c] = min(centers.get(c, half), half)
        out.append(StageReport(j, len(centers), 2 * min(halves), 2 * max(halves)))
    return out


@pytest.mark.parametrize("alpha", [0, 0.5, 1, 2])
def test_gaussian_block_reports_equal_the_fraction_centres(alpha):
    assert gaussian_block_reports(alpha, range(1, 5)) == reference_gaussian_block_reports(alpha, range(1, 5))


def reference_from_json(text: str) -> tuple:
    """`from_json` through the Fraction string parser and the sorting constructor."""
    try:
        obj = json.loads(text)
        pieces = [(F(a), F(b)) for a, b in obj["pieces"]]
        lo, hi = obj["space"]
        space = (F(lo), F(hi))
    except (ValueError, TypeError, KeyError, ArithmeticError, RecursionError) as e:
        raise GeometryError(f"malformed interval-union JSON: {e!r}") from None
    return reference_union(pieces, space)


def parsed_json(text: str) -> tuple:
    U = IntervalUnion.from_json(text)
    assert_view(U)
    return U.space, U.pieces


# endpoint tokens: canonical and other forms Fraction reads, and forms it rejects
JSON_ENDS = ['"2/4"', '"007/9"', '"-0/3"', '"1/3"', '"-1/2"', '"3"', '"0"', '"0.5"', '"1e-3"', '" 1/4 "',
             '"+1/5"', "0", "1", "0.25", "1e-3", "true", '"1/0"', '"0/00"', '"1/ 2"', '"1//2"', '"½"',
             '"١/2"', '"1/-2"', '"-"', '"/2"', '""', "null", "[]", "NaN", "Infinity"]


@st.composite
def json_documents(draw):
    """A `to_json` output, or a hand-made document: endpoint tokens in well-formed
    or broken structure, with reversed, overlapping and out-of-space pieces among them."""
    if draw(st.booleans()):
        return draw(spaced_unions()).to_json()
    end = st.sampled_from(JSON_ENDS)
    piece = st.one_of(st.builds(lambda a, b: f"[{a}, {b}]", end, end),
                      st.sampled_from(['["1/2"]', '["0", "1/2", "1"]', '"01"', "{}", "3"]))
    pieces = "[" + ", ".join(draw(st.lists(piece, max_size=4))) + "]"
    space = draw(st.sampled_from(['["0/1", "1/1"]', '["-1", "1"]', '["0", "1/2"]', '["1", "0"]', '["0"]', '"01"']))
    return draw(st.sampled_from([
        f'{{"space": {space}, "pieces": {pieces}}}', f'{{"pieces": {pieces}}}', f'{{"space": {space}}}',
        f"[{pieces}]", pieces + "x",
    ]))


@settings(max_examples=400, deadline=None)
@given(json_documents())
@example('{"space": ["0/1", "1/1"], "pieces": [["2/4", "007/9"], ["-0/3", "0"]]}')
@example('{"space": ["0/1", "1/1"], "pieces": [["1/2", "1/3"]]}')
@example('{"space": ["0/1", "1/1"], "pieces": [["0", "1/2"], ["1/3", "1"]]}')
@example('{"space": ["0/1", "1/1"], "pieces": [["-1/2", "1/2"]]}')
@example('{"space": ["0/1", "1/1"], "pieces": [["1/2", "3/2"]]}')
def test_from_json_equals_the_fraction_parser(text):
    assert outcome(parsed_json, text) == outcome(reference_from_json, text)


def reference_next_prime(n: int) -> int:
    k = n + 1
    if k <= 2:
        return 2
    if k % 2 == 0:
        k += 1
    while not is_prime(k):
        k += 2
    return k


def test_next_prime_equals_trial_division_below_ten_to_the_five():
    assert all(next_prime(n) == reference_next_prime(n) for n in range(-3, 10**5))


def test_next_prime_equals_trial_division_on_seeded_large_arguments():
    rng = random.Random("next_prime")
    for bits in range(64, 513, 16):
        for n in (rng.getrandbits(bits) | 1 << (bits - 1), 1 << bits):
            assert next_prime(n) == reference_next_prime(n), n


def test_sieved_next_prime_equals_trial_division_on_small_windows(monkeypatch):
    """The window sieve from 17 bits on, where every sieve prime is below the window."""
    monkeypatch.setattr(primes, "_SIEVE_BITS", 17)
    rng = random.Random("sieved next_prime")
    for n in [2**16 - 1, 2**16, 2**17 + 1] + [rng.randrange(2**16, 2**48) for _ in range(120)]:
        assert next_prime(n) == reference_next_prime(n), n


# -- block-tower declarations and the salemgap reduction -------------------
#
# The references are the hand formulas `Pi03Scheme` and `WeihrauchScheme`
# declared with before every tower's declaration was derived from its blocks,
# and the `salemgap` declaration that the cumulative rows phi(x) give.

TOWER_ALPHABET = [BitSequence.from_string(t) for t in ("0", "1", "(1)", "(01)", "10", "0(1)", "(10)", "11", "1100")]
LOG23 = math.log(2) / math.log(3)
TOWER_PS = [0.6, 0.8, 1.0, LOG23, LOG23 + 5e-10, LOG23 - 5e-10]


def reference_pi03_declaration(p: float, x: BitMatrix) -> float:
    good = [p * (1.0 - 2.0**-m) for m in range(x.max_row + 2) if x.row(m).is_eventually_zero]
    return p if x.tail.is_eventually_zero else (max(good) if good else 0.0)


def reference_weihrauch_declaration(xs: list[BitSequence]) -> float:
    return weihrauch_dimension_target([s.is_eventually_zero for s in xs])


def reference_salemgap_declarations(p: float, x: BitMatrix) -> tuple[float, float]:
    """(dim_H, dim_F) = (p, p) for a member; for a non-member dim_F is q_m = p(1 - 2^-m) at its first
    row m that is not eventually zero, and below p where the float rounds to p.  A p within 1e-9 of
    log 2/log 3 is read as log 2/log 3."""
    p = LOG23 if abs(p - LOG23) < 1e-9 else p
    rows = [x.row(m) for m in range(x.max_row + 1)] + [x.tail]
    m = next((m for m, r in enumerate(rows) if not r.is_eventually_zero), None)
    return p, p if m is None else min(p * (1.0 - 2.0**-m), math.nextafter(p, 0.0))


def declarations(scheme) -> tuple[str, str]:
    return scheme.declared_hdim.hex(), scheme.declared_fdim.hex()


@st.composite
def bit_matrices(draw, max_rows: int = 3):
    rows = draw(st.lists(st.sampled_from(TOWER_ALPHABET), max_size=max_rows))
    return BitMatrix(dict(enumerate(rows)), tail=draw(st.sampled_from(TOWER_ALPHABET)))


@st.composite
def more_one_bits(draw):
    """(x, y): y is x with alphabet sequences OR-ed into some of its rows and its tail."""
    x = draw(bit_matrices())
    mask = lambda: draw(st.sampled_from(TOWER_ALPHABET))
    rows = {m: x.row(m) | mask() for m in range(draw(st.integers(x.max_row + 1, 4)))}
    return x, BitMatrix(rows, tail=x.tail | mask())


def rows_of(x: BitMatrix, n: int) -> list[BitSequence]:
    return [x.row(m) for m in range(n)]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(TOWER_PS), bit_matrices(), st.lists(st.sampled_from(TOWER_ALPHABET), max_size=4))
def test_tower_declarations_equal_the_hand_formulas(p, x, xs):
    h = reference_pi03_declaration(p, x)
    assert declarations(Pi03Scheme(p, x)) == (h.hex(), h.hex())
    gap = SalemGapScheme(p, x)
    assert declarations(gap) == tuple(v.hex() for v in reference_salemgap_declarations(p, x))
    if abs(p - LOG23) < 1e-9:  # the head is the middle-third set, which declares log 2/log 3
        assert isinstance(gap.block(0), CantorScheme) and gap.block(0).declared_hdim == gap.declared_hdim
    w = reference_weihrauch_declaration(xs)
    assert declarations(WeihrauchScheme(xs)) == (w.hex(), w.hex())


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(TOWER_PS), more_one_bits())
def test_declarations_are_ordered_and_never_rise_with_more_one_bits(p, pair):
    x, y = pair
    n = y.max_row + 1
    for make in (lambda m: Pi03Scheme(p, m), lambda m: SalemGapScheme(p, m), lambda m: WeihrauchScheme(rows_of(m, n))):
        sx, sy = make(x), make(y)
        for s in (sx, sy):
            assert 0 <= s.declared_fdim <= s.declared_hdim
        assert sy.declared_hdim <= sx.declared_hdim and sy.declared_fdim <= sx.declared_fdim


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(TOWER_PS), bit_matrices())
@example(0.6, BitMatrix.from_rows([BitSequence.zero(), BitSequence.from_string("(1)")]))
@example(LOG23 - 5e-10, BitMatrix.zero())
@example(0.6, BitMatrix.from_rows([BitSequence.zero()] * 54 + [BitSequence.from_string("(1)")]))  # 1 - 2^-54 == 1.0
@example(1.0, BitMatrix.from_rows([BitSequence.zero()] * 60 + [BitSequence.from_string("(01)")]))
def test_salemgap_declares_a_salem_set_exactly_for_p3_members(p, x):
    gap = SalemGapScheme(p, x)
    assert p3_member(x) == (gap.declared_fdim == gap.declared_hdim)


@st.composite
def agreeing_matrices(draw):
    """(k, x, y): y agrees with x on bits 1..k of rows 0..k-1 and is drawn freely elsewhere, bit 0 included."""
    k = draw(st.integers(1, 4))
    x = draw(bit_matrices())
    rows = {}
    for m in range(draw(st.integers(k, 4))):
        row = draw(st.sampled_from(TOWER_ALPHABET))
        if m < k:
            row = BitSequence((draw(st.integers(0, 1)),) + x.row(m).bits(k + 1)[1:] + row.prefix, row.period)
        rows[m] = row
    return k, x, BitMatrix(rows, tail=draw(st.sampled_from(TOWER_ALPHABET)))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([0.6, 0.8, LOG23, 1.0]), agreeing_matrices())
def test_salemgap_locality_stage_k_reads_bits_1_to_k_of_rows_below_k(p, case):
    """Block n reads bits 1..k of phi row n - 1, which depends only on rows 0..n - 1 of the matrix."""
    k, x, y = case
    assert SalemGapScheme(p, x).stage(k) == SalemGapScheme(p, y).stage(k)


bit_sequences = st.builds(BitSequence, st.lists(st.integers(0, 1), max_size=6),
                          st.lists(st.integers(0, 1), min_size=1, max_size=6))
boxes = st.integers(1, 3).flatmap(lambda d: st.lists(st.lists(
    st.lists(unit_rationals, min_size=2, max_size=2).map(sorted), min_size=d, max_size=d), max_size=4).map(
    lambda bs: (d, bs)))


@st.composite
def values(draw):
    """A value of one of the six immutable types; a union has its Fraction pieces read or not."""
    kind = draw(st.sampled_from(["union", "box", "seq", "matrix", "distance", "gaussian"]))
    if kind == "union":
        U = draw(unions())
        if draw(st.booleans()):
            U = U.affine(draw(st.sampled_from([F(-3), F(1, 7), F(5, 2)])), draw(unit_rationals))
        if draw(st.booleans()):
            U.pieces  # noqa: B018 - fills the lazy cache before the copy
        return U
    if kind == "box":
        return BoxUnion(*draw(boxes))
    if kind == "seq":
        return draw(bit_sequences)
    if kind == "matrix":
        return BitMatrix(draw(st.dictionaries(st.integers(0, 6), bit_sequences, max_size=3)), draw(bit_sequences))
    if kind == "distance":
        return draw(st.one_of(st.builds(HausdorffDistance, unit_rationals),
                              st.builds(HausdorffDistance, st.floats(0, 2), st.just(False))))
    return GaussianInt(draw(st.integers(-(2**70), 2**70)), draw(st.integers(-9, 9)))


def pickled(v, protocol: int):
    return pickle.loads(pickle.dumps(v, protocol))


@settings(max_examples=300, deadline=None)
@given(values(), st.integers(0, pickle.HIGHEST_PROTOCOL))
def test_value_contract_copies_pickles_and_refuses_every_write(v, protocol):
    """copy, deepcopy and pickle give an equal value of the same type; no attribute is set or deleted."""
    for again in (copy.copy(v), copy.deepcopy(v), pickled(v, protocol)):
        assert type(again) is type(v) and again == v
        if type(v).__hash__ is not None:  # BitMatrix compares row by row and is unhashable
            assert hash(again) == hash(v)
        if isinstance(v, IntervalUnion):
            assert (again.int_ends, again.space, again.pieces) == (v.int_ends, v.space, v.pieces)
    before = pickled(v, protocol)
    for name in (*type(v).__slots__, "other"):
        for write in (lambda: setattr(v, name, None), lambda: delattr(v, name)):
            with pytest.raises(AttributeError) as err:
                write()
            assert str(err.value) == f"{type(v).__name__} is immutable"
    assert v == before


@settings(max_examples=100, deadline=None)
@given(boxes, st.randoms(use_true_random=False))
def test_value_contract_equal_box_unions_are_equal_and_hash_equally(case, rng):
    """The same boxes in another order, some twice, give an equal union with an equal hash."""
    d, bs = case
    again = bs + bs[: rng.randrange(len(bs) + 1)]
    rng.shuffle(again)
    A, B = BoxUnion(d, bs), BoxUnion(d, again)
    assert A == B and hash(A) == hash(B)
