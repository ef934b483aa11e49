"""Property tests: integer ball masses and the stage-report memo."""

from __future__ import annotations

import bisect
import math
from fractions import Fraction as F
from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from salemlab.cli import parse_scheme
from salemlab.measures import PiecewiseUniformMeasure


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
    return parse_scheme(spec).stage_report(k)


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
