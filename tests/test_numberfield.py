import math
from fractions import Fraction as F

import pytest

from salemlab.constructions import ConstructionError
from salemlab.dimension import box_count_fit
from salemlab.numberfield import (
    GaussianInt,
    congruent,
    gaussian_block_reports,
    gaussian_jarnik_centers,
    gaussian_jarnik_stage,
    gaussian_primes_norm_range,
    is_gaussian_prime,
    mult_matrix,
    mult_matrix_inv,
    norm,
    normalized_center,
    residue_system,
)


def all_gaussian_ints_with_norm_upto(nmax):
    b = math.isqrt(nmax)
    for x in range(-b, b + 1):
        for y in range(-b, b + 1):
            q = GaussianInt(x, y)
            if 0 < norm(q) <= nmax:
                yield q


class TestNormAndMatrix:
    def test_norm_examples(self):
        assert norm(GaussianInt(1, 1)) == 2
        assert norm(GaussianInt(2, 1)) == 5
        assert norm(GaussianInt(0, 0)) == 0

    def test_mult_matrix_shape(self):
        assert mult_matrix(GaussianInt(2, 1)) == ((2, -1), (1, 2))

    def test_inverse_is_exact(self):
        for q in all_gaussian_ints_with_norm_upto(50):
            m = mult_matrix(q)
            mi = mult_matrix_inv(q)
            prod = [
                [
                    m[0][0] * mi[0][0] + m[0][1] * mi[1][0],
                    m[0][0] * mi[0][1] + m[0][1] * mi[1][1],
                ],
                [
                    m[1][0] * mi[0][0] + m[1][1] * mi[1][0],
                    m[1][0] * mi[0][1] + m[1][1] * mi[1][1],
                ],
            ]
            assert prod == [[1, 0], [0, 1]]

    def test_inverse_matches_normalized_center(self):
        q = GaussianInt(1, 2)
        # A_q^-1 (1, 0)^T = (1/5, -2/5); the chosen residue shifts it into [0,1)^2
        mi = mult_matrix_inv(q)
        assert (mi[0][0], mi[1][0]) == (F(1, 5), F(-2, 5))


class TestResidueSystem:
    def test_one_plus_i(self):
        rs = residue_system(GaussianInt(1, 1))
        assert len(rs) == 2

    def test_two(self):
        rs = residue_system(GaussianInt(2, 0))
        assert sorted((r.a, r.b) for r in rs) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_counts_match_norm_exhaustively(self):
        for q in all_gaussian_ints_with_norm_upto(100):
            assert len(residue_system(q)) == norm(q)

    def test_pairwise_incongruent_and_maximal(self):
        for q in all_gaussian_ints_with_norm_upto(25):
            rs = residue_system(q)
            for i in range(len(rs)):
                for j in range(i + 1, len(rs)):
                    assert not congruent(rs[i], rs[j], q)
            # any further lattice point is congruent to a representative
            for extra in (GaussianInt(3, -2), GaussianInt(-1, 4), GaussianInt(7, 7)):
                assert any(congruent(extra, r, q) for r in rs)

    def test_normalization_in_unit_square(self):
        for q in all_gaussian_ints_with_norm_upto(40):
            for r in residue_system(q):
                cx, cy = normalized_center(q, r)
                assert 0 <= cx < 1 and 0 <= cy < 1

    def test_congruent_residue_of_one_for_q_equals_1_plus_2i(self):
        q = GaussianInt(1, 2)
        rs = residue_system(q)
        matches = [r for r in rs if congruent(r, GaussianInt(1, 0), q)]
        assert len(matches) == 1
        assert normalized_center(q, matches[0]) == (F(1, 5), F(3, 5))

    def test_zero_rejected(self):
        with pytest.raises(ConstructionError):
            residue_system(GaussianInt(0, 0))


class TestGaussianPrimality:
    def test_split_and_ramified(self):
        assert is_gaussian_prime(GaussianInt(1, 1))  # norm 2
        assert is_gaussian_prime(GaussianInt(2, 1))  # norm 5
        assert is_gaussian_prime(GaussianInt(1, 2))

    def test_inert(self):
        assert is_gaussian_prime(GaussianInt(3, 0))
        assert is_gaussian_prime(GaussianInt(0, 7))
        assert not is_gaussian_prime(GaussianInt(5, 0))  # 5 splits
        assert not is_gaussian_prime(GaussianInt(13, 0))

    def test_composites(self):
        assert not is_gaussian_prime(GaussianInt(2, 0))  # (1+i)^2 up to a unit
        assert not is_gaussian_prime(GaussianInt(3, 1))  # norm 10
        assert not is_gaussian_prime(GaussianInt(0, 0))

    def test_norm_range_enumeration(self):
        got = list(gaussian_primes_norm_range(4, 16))
        assert all(is_gaussian_prime(q) for q in got)
        assert all(4 <= norm(q) < 16 for q in got)
        # norm-5 pair (2,1), (1,2), norm-13 pair (3,2), (2,3), inert 3
        assert GaussianInt(3, 0) in got
        assert GaussianInt(2, 1) in got and GaussianInt(1, 2) in got
        assert GaussianInt(3, 2) in got and GaussianInt(2, 3) in got


class TestGaussianJarnik:
    def test_center_count_equals_norm_sum(self):
        for j in (1, 2):
            primes = list(gaussian_primes_norm_range(4**j, 4 ** (j + 1)))
            expected = sum(norm(q) for q in primes)
            centers = gaussian_jarnik_centers(2.0, j)
            # coinciding centers (0 in particular) are deduplicated
            assert len(centers) <= expected
            assert len(centers) >= expected - 4 * len(primes)

    def test_center_multiplicity_equals_norm_sum(self):
        # every block prime contributes exactly N(q) residue centers
        for j in (1, 2):
            primes = list(gaussian_primes_norm_range(4**j, 4 ** (j + 1)))
            total = sum(len(residue_system(q)) for q in primes)
            assert total == sum(norm(q) for q in primes)

    def test_block_one_alpha_zero_contains_norm5_centers(self):
        centers = gaussian_jarnik_centers(0.0, 1)
        assert (F(1, 5), F(3, 5)) in centers

    def test_stage_boxes_clamped(self):
        cover = gaussian_jarnik_stage(2.0, 1)
        for (x0, x1), (y0, y1) in cover.pieces:
            assert 0 <= x0 <= x1 <= 1 and 0 <= y0 <= y1 <= 1

    def test_box_fit_alpha_two(self):
        reps = gaussian_block_reports(2.0, range(1, 4))
        fit = box_count_fit(reps)
        assert abs(fit.exponent - 1.0) < 0.15

    def test_bad_args(self):
        with pytest.raises(ConstructionError):
            gaussian_jarnik_centers(-1.0, 1)
        with pytest.raises(ConstructionError):
            gaussian_jarnik_centers(0.0, 0)
        for alpha, j in ((-1.0, 1), (0.0, 0)):
            with pytest.raises(ConstructionError):
                gaussian_block_reports(alpha, range(j, j + 1))

    @pytest.mark.parametrize("alpha", [0, 0.5, 1, 1.5, 2, 3])
    def test_block_reports_count_the_centers(self, alpha):
        """The reports read count and sides off the primes; the centers are built residue by residue."""
        for rep, j in zip(gaussian_block_reports(alpha, range(1, 5)), range(1, 5)):
            centers = gaussian_jarnik_centers(alpha, j)
            halves = centers.values()
            assert rep == (j, len(centers), 2 * min(halves), 2 * max(halves))
