import cmath
import math
import random
from fractions import Fraction as F

import pytest
from scipy.integrate import quad

from salemlab.constructions import cantor_stage
from salemlab.geometry import IntervalUnion
from salemlab.measures import (
    MeasureError,
    PiecewiseUniformMeasure,
    SelfSimilarProductMeasure,
    affine_pushforward,
    ball_mass,
    natural_measure,
)

MIDDLE_THIRD = SelfSimilarProductMeasure(
    branching=2, offsets=((F(0), F(2, 3)),), contractions=(F(1, 3),)
)


def quadrature_transform(mu, xi):
    """Independent oracle: adaptive quadrature of the defining integral."""

    def density_integral(part):
        total = 0.0
        for a, b, w in mu.pieces:
            if a == b:
                total += w * part(xi * float(a))
                continue
            val, _ = quad(
                lambda t: part(xi * t), float(a), float(b), limit=400, epsabs=1e-13
            )
            total += w * val / float(b - a)
        return total

    return complex(
        density_integral(math.cos), -density_integral(math.sin)
    )


def random_measure(rng):
    cuts = sorted(rng.sample(range(0, 60), 2 * rng.randint(1, 4)))
    pieces = [(F(cuts[i], 60), F(cuts[i + 1], 60)) for i in range(0, len(cuts), 2)]
    u = IntervalUnion.from_intervals(pieces)
    return natural_measure(u)


class TestNaturalMeasure:
    def test_uniform_on_unit(self):
        mu = natural_measure(IntervalUnion.full())
        assert mu.pieces == ((F(0), F(1), 1.0),)

    def test_cantor_stage_one_weights(self):
        mu = natural_measure(cantor_stage(3, 1))
        assert [w for _, _, w in mu.pieces] == [0.5, 0.5]

    def test_singleton_dirac(self):
        mu = natural_measure(IntervalUnion([(0, 0)]))
        assert mu.pieces == ((F(0), F(0), 1.0),)
        assert abs(mu.fourier_eval(123.4)) == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(MeasureError):
            natural_measure(IntervalUnion.empty())

    def test_weight_sum_validated(self):
        with pytest.raises(MeasureError):
            PiecewiseUniformMeasure([(F(0), F(1), 0.5)])

    def test_overlapping_pieces_rejected(self):
        # the ball mass kernel assumes pieces meet at most at endpoints: on
        # these pieces ball_mass(7/16, 1/16) read 0.25 where the mass is 0.3125
        for pieces in ([(F(0), F(1), 0.5), (F(1, 4), F(1, 2), 0.5)],
                       [(F(1, 4), F(1, 2), 0.5), (F(0), F(1), 0.5)],
                       [(F(0), F(1), 0.5), (F(1, 2), F(1, 2), 0.5)]):
            with pytest.raises(MeasureError, match="overlap"):
                PiecewiseUniformMeasure(pieces)

    def test_touching_pieces_and_atoms_allowed(self):
        mu = PiecewiseUniformMeasure([(F(1, 2), F(1), 0.25), (F(1, 2), F(1, 2), 0.25), (F(0), F(1, 2), 0.5)])
        assert [(a, b) for a, b, _ in mu.pieces] == [(F(0), F(1, 2)), (F(1, 2), F(1, 2)), (F(1, 2), F(1))]
        assert mu.ball_mass(F(7, 16), F(1, 16)) == 0.5 / 4 + 0.25
        assert mu.ball_mass(F(5, 8), F(1, 8)) == 0.5 * 0 + 0.25 + 0.25 / 2


class TestFourierEval:
    def test_total_mass_at_zero(self):
        rng = random.Random(2)
        for _ in range(10):
            assert random_measure(rng).fourier_eval(0.0) == pytest.approx(1.0)

    def test_uniform_at_two_pi_vanishes(self):
        mu = natural_measure(IntervalUnion.full())
        got = mu.fourier_eval(2 * math.pi)
        oracle = quadrature_transform(mu, 2 * math.pi)
        assert abs(got) < 1e-12
        assert abs(got - oracle) < 1e-9

    def test_dirac_modulus_one(self):
        mu = natural_measure(IntervalUnion([(F(1, 2), F(1, 2))]))
        for xi in (0.5, 10.0, 999.0):
            assert abs(mu.fourier_eval(xi)) == pytest.approx(1.0)

    def test_against_quadrature_on_random_pairs(self):
        rng = random.Random(29)
        for _ in range(100):
            mu = random_measure(rng)
            xi = rng.uniform(-1000.0, 1000.0)
            got = mu.fourier_eval(xi)
            want = quadrature_transform(mu, xi)
            assert abs(got - want) < 1e-9

    def test_conjugate_symmetry(self):
        rng = random.Random(31)
        for _ in range(20):
            mu = random_measure(rng)
            xi = rng.uniform(0.0, 500.0)
            assert mu.fourier_eval(-xi) == pytest.approx(
                mu.fourier_eval(xi).conjugate(), abs=1e-14
            )

    def test_modulus_bounded_by_one(self):
        rng = random.Random(37)
        for _ in range(50):
            mu = random_measure(rng)
            xi = rng.uniform(-5000.0, 5000.0)
            assert abs(mu.fourier_eval(xi)) <= 1.0 + 1e-12

    def test_vectorized_matches_scalar(self):
        import numpy as np

        rng = random.Random(41)
        mu = random_measure(rng)
        xis = np.array([0.5, 3.25, 100.0, 2.0**15])
        many = mu.fourier_modulus_many(xis)
        for xi, m in zip(xis, many):
            assert m == pytest.approx(abs(mu.fourier_eval(float(xi))), abs=1e-12)


class TestProductMeasure:
    def test_unit_mass_at_zero(self):
        assert MIDDLE_THIRD.fourier_eval(0.0, 30) == pytest.approx(1.0)

    def test_middle_third_closed_form(self):
        # e^{-i xi/2} prod cos(xi 3^-j)
        for xi in (1.0, 7.5, 100.0):
            want = cmath.exp(-1j * xi / 2)
            for j in range(1, 60):
                want *= math.cos(xi * 3.0**-j)
            got = MIDDLE_THIRD.fourier_eval(xi, 60)
            assert got == pytest.approx(want, abs=1e-12)

    def test_no_decay_along_scale_powers(self):
        base = abs(MIDDLE_THIRD.fourier_eval(2 * math.pi, 60))
        for k in range(1, 9):
            v = abs(MIDDLE_THIRD.fourier_eval(3.0**k * 2 * math.pi, 60))
            assert abs(v - base) < 1e-9

    def test_depth_convergence_geometric(self):
        xi = 50.0
        diffs = []
        for depth in range(8, 24):
            a = MIDDLE_THIRD.fourier_eval(xi, depth)
            b = MIDDLE_THIRD.fourier_eval(xi, depth + 1)
            diffs.append(abs(a - b))
        assert all(d <= 1.0 for d in diffs)
        assert diffs[-1] < 1e-9
        assert all(
            nxt <= prev * 0.5 + 1e-15 for prev, nxt in zip(diffs, diffs[1:])
        )

    def test_resonant_frequencies_cover_scale_ladder(self):
        res = MIDDLE_THIRD.resonant_frequencies(100.0, 1000.0)
        assert any(abs(x - math.pi * 81) < 1e-9 for x in res)
        assert all(100.0 <= x < 1000.0 for x in res)

    def test_resonant_walk_ends_at_its_guard_when_a_contraction_rounds_to_one(self):
        """1 - 2^-60 is 1.0 as a float, so the scales never grow past hi: only the bound on k ends the walk."""
        mu = SelfSimilarProductMeasure(2, [[F(0), F(1, 2)]], [1 - F(1, 2**60)])
        assert mu.resonant_frequencies(1.0, 1000.0) == [math.pi * m for m in range(1, 25)]


class TestAffinePushforward:
    def test_identity(self):
        mu = natural_measure(cantor_stage(3, 2))
        nu = affine_pushforward(mu, 1, 0)
        assert nu.pieces == mu.pieces

    def test_translation_preserves_modulus(self):
        mu = natural_measure(cantor_stage(3, 2))
        nu = affine_pushforward(mu, 1, F(1, 2))
        for xi in (0.7, 33.0, 1000.0):
            assert abs(nu.fourier_eval(xi)) == pytest.approx(
                abs(mu.fourier_eval(xi)), abs=1e-12
            )

    def test_pushforward_identity_piecewise(self):
        mu = natural_measure(IntervalUnion.full())
        nu = affine_pushforward(mu, F(1, 3), 0)
        assert nu.pieces == ((F(0), F(1, 3), 1.0),)
        rng = random.Random(43)
        for _ in range(100):
            xi = rng.uniform(-800.0, 800.0)
            want = mu.fourier_eval(xi / 3)
            assert nu.fourier_eval(xi) == pytest.approx(want, abs=1e-12)

    def test_pushforward_identity_product(self):
        a, t = F(1, 3), F(1, 2)
        nu = affine_pushforward(MIDDLE_THIRD, a, t)
        rng = random.Random(47)
        for _ in range(50):
            xi = rng.uniform(-500.0, 500.0)
            want = cmath.exp(-1j * xi * float(t)) * MIDDLE_THIRD.fourier_eval(
                xi * float(a), 60
            )
            assert nu.fourier_eval(xi, 60) == pytest.approx(want, abs=1e-12)

    def test_zero_scale_rejected(self):
        with pytest.raises(MeasureError):
            affine_pushforward(natural_measure(IntervalUnion.full()), 0, 0)


class TestBallMass:
    def test_uniform_half(self):
        mu = natural_measure(IntervalUnion.full())
        assert ball_mass(mu, F(1, 2), F(1, 4)) == pytest.approx(0.5)

    def test_dirac_everything(self):
        mu = natural_measure(IntervalUnion([(0, 0)]))
        assert ball_mass(mu, 0, F(1, 100)) == 1.0

    def test_cantor_endpoint(self):
        mu = natural_measure(cantor_stage(3, 2))
        assert ball_mass(mu, 0, F(1, 9)) == 0.25

    def test_monotone_and_saturating(self):
        mu = natural_measure(cantor_stage(3, 3))
        masses = [ball_mass(mu, F(1, 2), F(1, 2**j)) for j in range(6, 0, -1)]
        assert masses == sorted(masses)
        assert ball_mass(mu, F(1, 2), 2) == pytest.approx(1.0)

    def test_nonpositive_radius_rejected(self):
        mu = natural_measure(IntervalUnion.full())
        with pytest.raises(MeasureError):
            ball_mass(mu, 0, 0)


class TestProductModulusBound:
    def test_modulus_never_exceeds_one(self):
        rng = random.Random(51)
        for _ in range(50):
            xi = rng.uniform(-50000.0, 50000.0)
            assert abs(MIDDLE_THIRD.fourier_eval(xi, 40)) <= 1.0 + 1e-12
