import math
import random
from fractions import Fraction as F

import pytest

from salemlab import constructions
from salemlab.bitseq import BitMatrix, BitSequence
from salemlab.constructions import (
    DYADIC_EXPONENT_BOUND,
    CantorScheme,
    ConstructionError,
    FpScheme,
    GeneralizedCantorScheme,
    IntervalScheme,
    JarnikScheme,
    Pi03Scheme,
    SAlphaScheme,
    SalemGapScheme,
    StageReport,
    WeihrauchScheme,
    _dyadic_pow,
    _power,
    cantor_stage,
    jarnik_stage,
    radial_lift,
    radial_reports,
    shrink_bound_holds,
    weihrauch_dimension_target,
)
from salemlab.geometry import IntervalUnion, hausdorff_metric
from salemlab.primes import primes_in_range


def enumerate_jarnik_block(alpha, j):
    """Independent oracle: centers p/q over block primes, merged by hand."""
    intervals = []
    for q in primes_in_range(2**j, 2 ** (j + 1)):
        r = F(1, q ** (2 + int(alpha)))
        for p in range(q + 1):
            c = F(p, q)
            intervals.append((max(c - r, F(0)), min(c + r, F(1))))
    intervals.sort()
    merged = []
    for a, b in intervals:
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return [(a, b) for a, b in merged]


class TestCantor:
    def test_stage_zero(self):
        assert cantor_stage(3, 0) == IntervalUnion.full()

    def test_stage_one(self):
        assert cantor_stage(3, 1).pieces == ((F(0), F(1, 3)), (F(2, 3), F(1)))

    def test_stage_two_by_enumeration(self):
        starts = [a for a, _ in cantor_stage(3, 2).pieces]
        assert starts == [F(0), F(2, 9), F(2, 3), F(8, 9)]
        assert all(b - a == F(1, 9) for a, b in cantor_stage(3, 2).pieces)

    def test_piece_counts_and_lengths(self):
        for n in (3, 4, 5):
            for k in (1, 4, 7):
                st = cantor_stage(n, k)
                assert len(st) == 2**k
                assert all(b - a == F(1, n**k) for a, b in st.pieces)

    def test_nesting(self):
        for k in range(6):
            assert cantor_stage(3, k + 1).subset_of(cantor_stage(3, k))

    def test_n_below_three_rejected(self):
        with pytest.raises(ConstructionError):
            cantor_stage(2, 1)


class TestGeneralizedCantor:
    def test_decay_measure_reads_the_schedule_without_building_stages(self):
        sch = GeneralizedCantorScheme.for_dimension(0.5)
        mu = sch.decay_measure(8)
        assert max(vars(sch).get("_stage_memo", {}), default=0) <= 8
        assert mu.contractions == (F(1, 4),) * 24

    def test_contractions_match_the_stage_lengths(self):
        sch = GeneralizedCantorScheme.for_dimension(0.7)
        mu = sch.decay_measure(30)
        assert len(mu.contractions) == 30
        lengths = [sch.stage(j).pieces[0][1] - sch.stage(j).pieces[0][0] for j in range(9)]
        assert mu.contractions[:8] == tuple(b / a for a, b in zip(lengths, lengths[1:]))


class TestJarnik:
    def test_block_one_alpha_zero_matches_enumeration(self):
        got = jarnik_stage(0.0, 1)
        assert list(got.pieces) == enumerate_jarnik_block(0, 1)
        # q in {2, 3}: centers 0, 1/2, 1 and 0, 1/3, 2/3, 1 with radii 1/4, 1/9
        assert got.pieces == ((F(0), F(1)),)

    def test_block_two_alpha_one_center_count(self):
        primes = primes_in_range(4, 8)
        assert primes == [5, 7]
        assert sum(q + 1 for q in primes) == 14
        got = jarnik_stage(1.0, 2)
        assert list(got.pieces) == enumerate_jarnik_block(1, 2)
        lengths = {b - a for a, b in got.pieces}
        # interior pieces have full width 2 q^-3, clamped end pieces half
        assert F(2, 125) in lengths and F(2, 343) in lengths

    def test_blocks_match_enumeration_alpha_two(self):
        for j in (1, 2, 3):
            assert list(jarnik_stage(2.0, j).pieces) == enumerate_jarnik_block(2, j)

    def test_bad_args(self):
        with pytest.raises(ConstructionError):
            jarnik_stage(-1.0, 1)
        with pytest.raises(ConstructionError):
            jarnik_stage(0.0, 0)

    def test_scheme_is_flagged_non_nested(self):
        assert JarnikScheme(1.0).nested is False


class TestSAlpha:
    def test_stage_zero_full(self):
        assert SAlphaScheme(1.0).stage(0) == IntervalUnion.full()

    def test_nesting_and_refinement(self):
        sch = SAlphaScheme(1.0)
        for k in range(5):
            cur, nxt = sch.stage(k), sch.stage(k + 1)
            assert nxt.subset_of(cur)
            # every piece keeps a descendant
            for a, b in cur.pieces:
                assert any(a <= c and d <= b for c, d in nxt.pieces)

    def test_affine_scaling_identity(self):
        unit = SAlphaScheme(1.0).stage(2)
        scaled = unit.map_onto((F(1, 2), F(3, 4)))
        mapped = [(F(1, 2) + a / 4, F(1, 2) + b / 4) for a, b in unit.pieces]
        assert list(scaled.pieces) == mapped

    def test_centers_sit_on_prime_lattice(self):
        sch = SAlphaScheme(1.0)
        st = sch.stage(1)
        q = sch.stage_prime(1)
        from salemlab.primes import is_prime

        assert is_prime(q)
        for a, b in st.pieces:
            c = (a + b) / 2
            assert (c * q).denominator == 1

    def test_calibrated_counting_slope(self):
        sch = SAlphaScheme(2.0)
        reps = sch.reports(1, 6)
        from salemlab.dimension import box_count_fit

        fit = box_count_fit(reps)
        assert abs(fit.exponent - 0.5) < 0.02
        assert fit.r_squared > 0.999


class TestFp:
    def test_domain_error(self):
        with pytest.raises(ConstructionError):
            FpScheme(0.0, BitSequence.zero())
        with pytest.raises(ConstructionError):
            FpScheme(1.5, BitSequence.zero())

    def test_zero_sequence_reduces_to_plain_scheme(self):
        f = FpScheme(0.5, BitSequence.zero())
        for k in range(4):
            assert f.stage(k) == SAlphaScheme(2.0 / 0.5 - 2.0).stage(k)

    def test_shrink_bound_exact_at_one_bits(self):
        rng = random.Random(23)
        for _ in range(8):
            bits = [rng.randint(0, 1) for _ in range(9)]
            x = BitSequence(bits)
            f = FpScheme(0.6, x)
            f.stage(8)
            events = f.shrink_events(8)
            positions = [s for s in range(8) if x.bit(s + 1) == 1]
            assert [e[0] for e in events] == positions
            for s, n, cap in events:
                diams = [b - a for a, b in f.stage(s + 1).pieces]
                assert len(diams) == n
                assert shrink_bound_holds(diams, s)
                # the exact sum bound: every diam <= cap forces the sum there
                assert all(d <= cap for d in diams)

    def test_shared_salpha_keys_on_the_exact_alpha(self):
        x = BitSequence.from_string("0110")
        first = FpScheme(0.6, x)
        first.stage(3)
        near = FpScheme(0.6000000000000001, x)
        assert near.alpha != first.alpha
        assert near._sal.alpha == near.alpha
        assert first._sal.alpha == first.alpha

    def test_shrink_bound_violation_detected(self):
        assert not shrink_bound_holds([F(1, 2), F(1, 2)], 3)

    def test_nesting_with_mixed_bits(self):
        f = FpScheme(0.5, BitSequence.from_string("0110"))
        for k in range(6):
            assert f.stage(k + 1).subset_of(f.stage(k))

    def test_continuity_modulus(self):
        rng = random.Random(41)
        for agree in (2, 4):
            shared = [rng.randint(0, 1) for _ in range(agree + 1)]
            x = BitSequence(shared + [0, 0, 0])
            y = BitSequence(shared + [1, 0, 1])
            fx, fy = FpScheme(0.5, x), FpScheme(0.5, y)
            ref = fx.stage(agree)
            assert ref == fy.stage(agree)
            bound = max(b - a for a, b in ref.pieces)
            for m in range(agree, agree + 3):
                d = hausdorff_metric(fx.stage(m), fy.stage(m))
                assert d.value <= bound


class TestPi03:
    def test_stage_contains_zero_and_nests(self):
        x = BitMatrix.from_rows([BitSequence.zero(), BitSequence.from_string("(10)")])
        sch = Pi03Scheme(0.8, x)
        prev = sch.stage(0)
        assert prev.contains_point(0)
        for k in range(1, 6):
            cur = sch.stage(k)
            assert cur.contains_point(0)
            assert cur.subset_of(prev)
            prev = cur

    def test_blocks_pairwise_share_at_most_a_point(self):
        x = BitMatrix.zero()
        sch = Pi03Scheme(0.8, x)
        k = 5
        blocks = [sch.block_union(m, k) for m in range(k + 1)]
        for i in range(len(blocks)):
            for j in range(i + 1, len(blocks)):
                if blocks[i].is_empty or blocks[j].is_empty:
                    continue
                shared = [
                    e
                    for a, b in blocks[i].pieces
                    for e in (a, b)
                    if blocks[j].contains_point(e)
                ]
                assert len(set(shared)) <= 1

    def test_declared_dimension_sup(self):
        sch = Pi03Scheme(0.8, BitMatrix.zero())
        assert sch.declared_hdim == pytest.approx(0.8)
        qs = [sch.q_m(m) for m in range(1, 10)]
        assert max(qs) < 0.8 and qs == sorted(qs)

    def test_bad_tail_caps_dimension(self):
        x = BitMatrix({0: BitSequence.zero()}, tail=BitSequence.from_string("(1)"))
        sch = Pi03Scheme(0.8, x)
        assert sch.declared_hdim < 0.8

    def test_zero_matrix_stage_contains_zero(self):
        assert Pi03Scheme(0.5, BitMatrix.zero()).stage(3).contains_point(0)


@pytest.mark.parametrize("cls, branching", [(Pi03Scheme, 3), (SalemGapScheme, 2)])
def test_block_tower_branching_reaches_every_sequence_block(cls, branching):
    sch = cls(0.8, BitMatrix.from_rows([BitSequence.zero(), BitSequence.from_string("(10)")]))
    assert sch.branching == branching
    for m in range(1, 4):
        assert sch.block(m).branching == branching


class TestSalemGap:
    def test_head_block_is_middle_third_for_matching_p(self):
        p = math.log(2) / math.log(3)
        sch = SalemGapScheme(p, BitMatrix.zero())
        head = sch.block_union(0, 2)
        expect = cantor_stage(3, 2).map_onto((F(1, 2), F(1)))
        assert list(head.pieces) == list(expect.pieces)

    def test_generalized_head_counting_dimension(self):
        p = 0.8
        g = GeneralizedCantorScheme.for_dimension(p)
        for k in (4, 8):
            st = g.stage(k)
            ell = st.pieces[0][1] - st.pieces[0][0]
            est = math.log(len(st)) / -math.log(float(ell))
            assert abs(est - p) < 0.01

    def test_declared_salem_flag(self):
        zero = BitMatrix.zero()
        bad = BitMatrix({0: BitSequence.from_string("(10)")})
        assert SalemGapScheme(0.8, zero).declared_fdim == pytest.approx(0.8)
        assert SalemGapScheme(0.8, bad).declared_fdim == 0.0

    @pytest.mark.parametrize("rows, fdim", [("0;(1)", 0.3), ("(10)", 0.0), ("(01);0", 0.0), ("0;0;(1)", 0.45)])
    def test_non_member_declares_q_m_at_its_first_bad_row(self, rows, fdim):
        sch = SalemGapScheme(0.6, BitMatrix.from_rows([BitSequence.from_string(r) for r in rows.split(";")]))
        assert sch.declared_hdim == 0.6
        assert sch.declared_fdim == pytest.approx(fdim)

    def test_stage_nests(self):
        sch = SalemGapScheme(0.7, BitMatrix.zero())
        for k in range(4):
            assert sch.stage(k + 1).subset_of(sch.stage(k))

    @pytest.mark.parametrize("p, rows, k", [(0.63, "1;0", 4), (math.log(2) / math.log(3), "(10);0", 3), (0.8, "0", 2)])
    def test_stage_holds_zero_and_nests_for_any_rows(self, p, rows, k):
        x = BitMatrix.from_rows([BitSequence.from_string(r) for r in rows.split(";")])
        sch = SalemGapScheme(p, x)
        assert sch.stage(k).contains_point(0)
        assert sch.stage(k).subset_of(sch.stage(k - 1))


class TestWeihrauch:
    def test_empty_family_is_singleton_zero(self):
        st = WeihrauchScheme([]).stage(3)
        assert st.pieces == ((F(0), F(0)),)

    def test_dimension_target(self):
        assert weihrauch_dimension_target([True, True, False]) == pytest.approx(0.75)
        assert weihrauch_dimension_target([False]) == 0.0

    def test_declared_dims(self):
        xs = [BitSequence.zero(), BitSequence.from_string("(10)")]
        sch = WeihrauchScheme(xs)
        assert sch.declared_hdim == pytest.approx(0.5)
        assert sch.index_sets == [{1}, {2}, {1, 2}]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_index_sets_are_the_nonempty_subsets_in_counting_order(self, n):
        sets = WeihrauchScheme([BitSequence.zero()] * n).index_sets
        assert len(sets) == 2**n - 1 == len(set(sets))
        assert all(f and f <= set(range(1, n + 1)) for f in sets)
        assert [sum(2 ** (i - 1) for i in f) for f in sets] == list(range(1, 2**n))

    def test_stage_nests_and_holds_zero(self):
        xs = [BitSequence.zero(), BitSequence.from_string("1")]
        sch = WeihrauchScheme(xs)
        prev = sch.stage(0)
        for d in range(1, 5):
            cur = sch.stage(d)
            assert cur.contains_point(0)
            assert cur.subset_of(prev)
            prev = cur


class _GuardedFraction(F):
    """A Fraction whose powers fail the test instead of running when the exponent is out of bounds."""

    def __pow__(self, k):
        assert abs(k) <= DYADIC_EXPONENT_BOUND, f"2**{k} was started"
        return F(self) ** k


class TestDyadicExponentBound:
    """Extreme spec numbers are refused before the huge power of two is taken."""

    @pytest.fixture(autouse=True)
    def guarded(self, monkeypatch):
        monkeypatch.setattr(constructions, "Fraction", _GuardedFraction)

    @pytest.mark.parametrize("base, exponent", [
        (3.0, -5e307), (2.0, -3e300), (2.0, 1e300), (2.0, -math.inf), (2.0, math.nan),
        (2.0, -DYADIC_EXPONENT_BOUND), (11.0, -123458.5),
    ])
    def test_out_of_bound_exponent_raises(self, base, exponent):
        with pytest.raises(ConstructionError, match=f"within ±{DYADIC_EXPONENT_BOUND}"):
            _dyadic_pow(base, exponent)

    def test_exponents_inside_the_bound_are_exact(self):
        k = DYADIC_EXPONENT_BOUND - 1
        assert _dyadic_pow(2.0, -k) == F(1, 2**k) and _dyadic_pow(2.0, k) == 2**k
        assert F(1, 2**796) < _dyadic_pow(3.0, -501.0) < F(1, 2**794)  # salpha:1000, the largest |k| tests reach

    def test_power_is_exact_at_an_integral_exponent_and_bounded_at_any(self):
        assert _power(11, -4.0) == F(1, 11**4) and _power(2, 65535.0) == 2**65535  # exact
        assert _power(5, -1.5) == _dyadic_pow(5.0, -1.5)  # half-integral: dyadic
        for n, exponent in ((11, -1e300), (2, -65536.0), (5, -28227.5)):  # log2(5) * 28227.5 > 65536
            with pytest.raises(ConstructionError, match=f"^{n}\\*\\*.* is out of range: .* within ±65536$"):
                _power(n, exponent)

    def test_schemes_refuse_at_parse_or_at_the_stage(self):
        with pytest.raises(ConstructionError):
            SAlphaScheme(1e308)
        for scheme in (GeneralizedCantorScheme.for_dimension(1e-300), JarnikScheme(123456.5), JarnikScheme(1e300)):
            with pytest.raises(ConstructionError, match="out of range"):
                scheme.stage(3)


class TestStageReports:
    def test_report_fields(self):
        rep = StageReport.of(2, cantor_stage(3, 2))
        assert rep == StageReport(2, 4, F(1, 9), F(1, 9))

    def test_interval_scheme_reports_dyadic_cover(self):
        sch = IntervalScheme()
        rep = sch.report_of(3, sch.stage(3))
        assert rep.piece_count == 8
        assert rep.min_diam == rep.max_diam == F(1, 8)

    def test_diameters_decrease_for_nested_schemes(self):
        for sch in (CantorScheme(3), SAlphaScheme(1.0), FpScheme(0.5, BitSequence.zero())):
            reps = sch.reports(1, 5)
            diams = [r.max_diam for r in reps]
            assert diams == sorted(diams, reverse=True)


class TestRadialLift:
    def test_against_point_sampling_oracle(self):
        A = IntervalUnion([(F(1, 2), F(1))])
        res = F(1, 8)
        cover = radial_lift(A, res)
        covered = {(box[0][0], box[1][0]) for box in cover.pieces}
        # any sampled point of the annulus must land in a covered cell
        rng = random.Random(9)
        for _ in range(500):
            x = F(rng.randint(-100, 100), 100)
            y = F(rng.randint(-100, 100), 100)
            r2 = x * x + y * y
            if F(1, 4) <= r2 <= 1:
                cx = (x / res).__floor__() * res
                cy = (y / res).__floor__() * res
                cx = min(max(cx, -1), 1 - res)
                cy = min(max(cy, -1), 1 - res)
                assert (cx, cy) in covered or any(
                    bx[0] <= x <= bx[1] and by[0] <= y <= by[1]
                    for bx, by in cover.pieces
                )
        # any covered cell must meet the annulus (independent float check)
        for (x0, x1), (y0, y1) in cover.pieces:
            fx = [float(x0), float(x1)]
            fy = [float(y0), float(y1)]
            mins = (0.0 if fx[0] <= 0 <= fx[1] else min(abs(v) for v in fx)) ** 2 + (
                0.0 if fy[0] <= 0 <= fy[1] else min(abs(v) for v in fy)
            ) ** 2
            maxs = max(abs(v) for v in fx) ** 2 + max(abs(v) for v in fy) ** 2
            assert mins <= 1.0 + 1e-9 and maxs >= 0.25 - 1e-9

    def test_singleton_circle_count_tracks_circumference(self):
        A = IntervalUnion([(F(1), F(1))], space=(0, 1))
        for j in (4, 5, 6):
            res = F(1, 2**j)
            n = len(radial_lift(A, res))
            circumference_cells = 2 * math.pi / float(res)
            assert 0.5 * circumference_cells < n < 3.0 * circumference_cells

    def test_annulus_area_scaling(self):
        A = IntervalUnion([(F(1, 2), F(1))])
        res = F(1, 16)
        n = len(radial_lift(A, res))
        area = math.pi * (1 - 0.25)
        assert 0.5 * area / float(res) ** 2 < n < 2.0 * area / float(res) ** 2

    def test_cantor_radial_box_dimension(self):
        A = cantor_stage(3, 8)
        reps = radial_reports(A, range(2, 8))
        from salemlab.dimension import box_count_fit

        fit = box_count_fit(reps)
        target = 1 + math.log(2) / math.log(3)
        assert abs(fit.exponent - target) < 0.1

    def test_radius_pieces_below_zero_are_clipped(self):
        # norms are nonnegative: radii in [-1/2, 1/4] cover the disc of radius 1/4,
        # the cells with lx^2 + ly^2 <= 16 in units of 1/16 (17 per quadrant)
        disc = radial_lift(IntervalUnion([(F(-1, 2), F(1, 4))], space=(-1, 1)), F(1, 16))
        assert len(disc) == 68
        assert disc.pieces == radial_lift(IntervalUnion([(0, F(1, 4))]), F(1, 16)).pieces
        assert radial_lift(IntervalUnion([(F(-1, 2), F(-1, 4))], space=(-1, 1)), F(1, 16)).is_empty
