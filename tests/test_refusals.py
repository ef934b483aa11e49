"""The input-validation raises that no other in-process test fires, as one table: each call, its exception
type and message.

The Fourier fit's refusals are checked with its frequency grid replaced by a function that fails, so a
refused count or ceiling that reached the sweep would fail the test instead of building the array.
"""

import sys
from fractions import Fraction as F

import pytest

from salemlab import SAMPLES_BOUND, dimension
from salemlab.bitseq import BitMatrix, BitSequence
from salemlab.constructions import CantorScheme, ConstructionError, SAlphaScheme, WeihrauchScheme
from salemlab.dimension import FitError, countable_union_sup, fourier_decay_fit, frostman_fit
from salemlab.geometry import BoxUnion, GeometryError, IntervalUnion, as_fraction, simplex_partition_1d
from salemlab.measures import MeasureError, SelfSimilarProductMeasure, natural_measure
from salemlab.numberfield import GaussianInt, divides, mult_matrix_inv

UNIT = natural_measure(IntervalUnion.full())
HALVES = [[F(0), F(1, 2)]]  # one offset stage of a two-branch product measure
XI_MAX = "xi_max must be a finite positive number"
DIGIT_LIMIT = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits

# name -> (the refused call, its exception type, its message)
REFUSALS = {
    "bit sequence, empty period": (lambda: BitSequence((), ()), ValueError, "period must be nonempty"),
    "bit sequence, bit 2": (lambda: BitSequence((1, 2)), ValueError, "bits must be 0 or 1"),
    "bit sequence, negative position": (lambda: BitSequence.zero().bit(-1), IndexError, "negative position"),
    "bit matrix, negative row index": (lambda: BitMatrix({-1: BitSequence.zero()}), ValueError,
                                       "row indices must be nonnegative"),
    "bit matrix, row not a bit sequence": (lambda: BitMatrix({0: "1"}), TypeError, "rows must be BitSequences"),
    "salpha, branching 1": (lambda: SAlphaScheme(1.0, branching=1), ConstructionError, "branching must be >= 2"),
    "salpha, centre prime past the bound": (lambda: SAlphaScheme(40000).stage(1), ConstructionError,
                                            "the centre prime needs 31706 bits, above the bound of 3072"),
    "frostman, radius 0": (lambda: frostman_fit(UNIT, [F(1, 2)], [0, F(1, 8), F(1, 4), F(1, 2)]), FitError,
                           "radii must be positive"),
    "frostman, centres off the support": (lambda: frostman_fit(UNIT, [5], [F(1, 8), F(1, 4), F(1, 2), 1]),
                                          FitError, "ball masses vanished at every scale"),
    "frostman, distinct radii with one float log": (
        lambda: frostman_fit(UNIT, [F(1, 2)], [1 + F(k, 10**30) for k in range(4)]), FitError,
        "degenerate abscissa: all scales equal"),
    "union sup, no reports": (lambda: countable_union_sup([], True), FitError, "no block reports given"),
    "fit, xi_max 2^513": (lambda: fourier_decay_fit(UNIT, xi_max=2.0**513), FitError,
                          "xi_max too large: it must stay below 2^513"),
    "fit, xi_max nan": (lambda: fourier_decay_fit(UNIT, xi_max=float("nan")), FitError, XI_MAX),
    "fit, xi_max inf": (lambda: fourier_decay_fit(UNIT, xi_max=float("inf")), FitError, XI_MAX),
    "fit, xi_max 0": (lambda: fourier_decay_fit(UNIT, xi_max=0), FitError, XI_MAX),
    "fit, xi_max -1": (lambda: fourier_decay_fit(UNIT, xi_max=-1.0), FitError, XI_MAX),
    "fit, samples one above the bound": (lambda: fourier_decay_fit(UNIT, samples_per_band=SAMPLES_BOUND + 1),
                                         FitError, f"at most {SAMPLES_BOUND} samples per dyadic band"),
    "fit, samples 10^20": (lambda: fourier_decay_fit(UNIT, samples_per_band=10**20), FitError,
                           f"at most {SAMPLES_BOUND} samples per dyadic band"),
    "fit, top band end above the float ceiling": (
        lambda: fourier_decay_fit(CantorScheme(3).decay_measure(8), xi_max=2.0**40), FitError,
        "xi_max too large: top band end 1.099511628e+12 above float ceiling 8589934592"),
    "fit, top band end just above the unit interval's float ceiling": (
        lambda: fourier_decay_fit(UNIT, xi_max=2.0**29), FitError,
        "xi_max too large: top band end 536870912 above float ceiling 536870911.8"),
    "as_fraction of a float": (lambda: as_fraction(1.5), TypeError, "not a rational: 1.5"),
    "as_fraction, exponent past the digit limit": (lambda: as_fraction("1e-1000000"), ValueError,
                                                   f"decimal exponent -1000000 beyond the digit limit {DIGIT_LIMIT}"),
    "weihrauch, rows past the bound": (lambda: WeihrauchScheme([BitSequence.zero()] * 7), ConstructionError,
                                       "7 rows, above the bound of 6"),
    "point distance to the empty union": (lambda: IntervalUnion([]).point_distance(0), GeometryError,
                                          "distance to the empty set is undefined"),
    "box union, dimension 0": (lambda: BoxUnion(0, []), GeometryError, "dimension must be positive"),
    "box union, wrong arity": (lambda: BoxUnion(2, [[(0, 1)]]), GeometryError, "box arity does not match dimension"),
    "box union, reversed side": (lambda: BoxUnion(1, [[(1, 0)]]), GeometryError, "box side reversed"),
    "partition, grid 0": (lambda: simplex_partition_1d(IntervalUnion.full(), 0), GeometryError,
                          "grid step must be positive"),
    "max ball masses, radius 0": (lambda: UNIT.max_ball_masses([F(1, 2)], [0]), MeasureError,
                                  "radius must be positive"),
    "product measure, branching 1": (lambda: SelfSimilarProductMeasure(1, [[F(0)]], [F(1, 3)]), MeasureError,
                                     "branching must be >= 2"),
    "product measure, no stage": (lambda: SelfSimilarProductMeasure(2, [], [F(1, 3)]), MeasureError,
                                  "need at least one stage of offsets and contractions"),
    "product measure, short offset stage": (lambda: SelfSimilarProductMeasure(2, [[F(0)]], [F(1, 3)]), MeasureError,
                                            "each offset stage must list one offset per branch"),
    "product measure, contraction 1": (lambda: SelfSimilarProductMeasure(2, HALVES, [F(1)]), MeasureError,
                                       "contractions must lie in (0, 1)"),
    "product measure, scale 0": (lambda: SelfSimilarProductMeasure(2, HALVES, [F(1, 3)], scale=F(0)), MeasureError,
                                 "affine scale must be nonzero"),
    "product transform, depth 0": (lambda: SelfSimilarProductMeasure(2, HALVES, [F(1, 3)]).fourier_eval(1.0, depth=0),
                                   MeasureError, "depth must be >= 1"),
    "divides by zero": (lambda: divides(GaussianInt(0, 0), GaussianInt(1, 0)), ConstructionError, "division by zero"),
    "inverse of zero": (lambda: mult_matrix_inv(GaussianInt(0, 0)), ConstructionError,
                        "zero has no multiplication inverse"),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_refused_input_raises_its_error(name, monkeypatch):
    def no_grid(*args):
        raise AssertionError("a refused fit reached its frequency grid")

    monkeypatch.setattr(dimension, "_band_grid", no_grid)
    call, error, message = REFUSALS[name]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message
