import copy
import json
import math
import pickle
import random
import sys
from fractions import Fraction as F

import pytest

from salemlab.geometry import (
    BoxUnion,
    GeometryError,
    HausdorffDistance,
    IntervalUnion,
    check_printable,
    diameter,
    disjoint_from_compact,
    format_fraction,
    format_ratio,
    hausdorff_metric,
    intersects_open,
    one_sided_distance,
    simplex_partition_1d,
    subset_of_open,
)


def grid_distance_oracle(A, B, step=F(1, 10000)):
    """Dense-grid approximation of max over the two one-sided distances."""

    def point_dist(x, U):
        return min(
            F(0) if a <= x <= b else (a - x if x < a else x - b) for a, b in U.pieces
        )

    def one_sided(src, dst):
        best = F(0)
        for a, b in src.pieces:
            x = a
            while x <= b:
                d = point_dist(x, dst)
                if d > best:
                    best = d
                x += step
            d = point_dist(b, dst)
            if d > best:
                best = d
        return best

    return max(one_sided(A, B), one_sided(B, A))


def random_union(rng, max_pieces=4):
    cuts = sorted(rng.sample(range(0, 64), 2 * rng.randint(1, max_pieces)))
    pieces = [(F(cuts[i], 64), F(cuts[i + 1], 64)) for i in range(0, len(cuts), 2)]
    return IntervalUnion.from_intervals(pieces)


class TestIntervalUnion:
    def test_normalization_sorts_and_merges(self):
        u = IntervalUnion.from_intervals([(F(1, 2), 1), (0, F(1, 4)), (F(1, 4), F(1, 2))])
        assert u.pieces == ((F(0), F(1)),)

    def test_disjointness_enforced(self):
        with pytest.raises(GeometryError):
            IntervalUnion([(0, F(1, 2)), (F(1, 4), 1)])

    def test_reversed_endpoints_rejected(self):
        with pytest.raises(GeometryError):
            IntervalUnion([(F(1, 2), F(1, 4))])

    def test_outside_space_rejected(self):
        with pytest.raises(GeometryError):
            IntervalUnion([(0, 2)])

    def test_degenerate_piece_allowed(self):
        u = IntervalUnion([(0, 0), (F(1, 2), 1)])
        assert u.contains_point(0)
        assert not u.contains_point(F(1, 4))

    def test_subset_of(self):
        small = IntervalUnion([(F(1, 9), F(2, 9))])
        big = IntervalUnion([(0, F(1, 3)), (F(2, 3), 1)])
        assert small.subset_of(big)
        assert not big.subset_of(small)

    def test_json_round_trip_bit_exact(self):
        rng = random.Random(7)
        for _ in range(50):
            u = random_union(rng)
            v = IntervalUnion.from_json(u.to_json())
            assert v == u
        txt = IntervalUnion([(F(1, 3), F(2, 3))]).to_json()
        obj = json.loads(txt)
        assert obj["pieces"] == [["1/3", "2/3"]]
        assert obj["space"] == ["0/1", "1/1"]

    @pytest.mark.parametrize("text", [
        "not json", "[]", '{"space": ["0", "1"]}', '{"pieces": []}',
        '{"space": ["0", "1"], "pieces": [["1/3"]]}',
        '{"space": ["0", "1"], "pieces": [["1/3", "x"]]}',
        '{"space": ["0", "1"], "pieces": [["1/0", "1"]]}',
        '{"space": ["0", "1"], "pieces": [[Infinity, 1]]}',
        '{"space": ["0", "1"], "pieces": [[null, 1]]}',
        '{"space": ["0"], "pieces": []}',
    ])
    def test_malformed_json_raises_geometry_error(self, text):
        with pytest.raises(GeometryError):
            IntervalUnion.from_json(text)


class TestHausdorffMetric:
    def test_both_empty(self):
        assert hausdorff_metric(IntervalUnion.empty(), IntervalUnion.empty()).value == 0

    def test_one_empty(self):
        d = hausdorff_metric(IntervalUnion.full(), IntervalUnion.empty())
        assert d.value == 1
        assert d.exact

    def test_cantor_first_stage_vs_full(self):
        A = IntervalUnion([(0, F(1, 3)), (F(2, 3), 1)])
        B = IntervalUnion.full()
        d = hausdorff_metric(A, B)
        assert d.value == F(1, 6)
        oracle = grid_distance_oracle(A, B)
        assert abs(F(d.value) - oracle) < F(1, 1000)

    def test_matches_grid_oracle_on_random_pairs(self):
        rng = random.Random(11)
        for _ in range(10):
            A, B = random_union(rng), random_union(rng)
            d = hausdorff_metric(A, B)
            oracle = grid_distance_oracle(A, B, step=F(1, 2048))
            assert abs(F(d.value) - oracle) <= F(1, 1024)

    def test_metric_axioms_on_seeded_triples(self):
        rng = random.Random(3)
        for _ in range(100):
            A, B, C = (random_union(rng) for _ in range(3))
            dab = hausdorff_metric(A, B).value
            assert dab == hausdorff_metric(B, A).value
            assert hausdorff_metric(A, A).value == 0
            assert hausdorff_metric(A, C).value <= dab + hausdorff_metric(B, C).value

    def test_containment_kills_one_side(self):
        rng = random.Random(5)
        for _ in range(20):
            A = random_union(rng)
            B = IntervalUnion(A.pieces[: max(1, len(A.pieces) - 1)])
            assert one_sided_distance(B, A) == 0

    def test_space_mismatch_rejected(self):
        A = IntervalUnion([(0, 1)], space=(0, 2))
        with pytest.raises(GeometryError):
            hausdorff_metric(A, IntervalUnion.full())


class TestDiameter:
    def test_interval_union(self):
        assert diameter(IntervalUnion([(0, F(1, 3)), (F(2, 3), 1)])) == 1
        assert diameter(IntervalUnion.empty()) == 0
        assert diameter(IntervalUnion([(F(1, 2), F(1, 2))])) == 0

    def test_box_pythagorean(self):
        box = BoxUnion(2, [((0, F(3, 4)), (0, 1))])
        d = diameter(box)
        assert d == F(5, 4)
        assert isinstance(d, F)

    def test_box_irrational(self):
        box = BoxUnion(2, [((0, 1), (0, 1))])
        assert abs(diameter(box) - 2**0.5) < 1e-12

    def test_empty_box(self):
        assert diameter(BoxUnion(2, [])) == 0

    def test_two_boxes(self):
        boxes = BoxUnion(2, [((0, F(1, 4)), (0, F(1, 4))), ((F(3, 4), 1), (F(3, 4), 1))])
        assert abs(diameter(boxes) - 2**0.5) < 1e-12

    @pytest.mark.parametrize("seed", range(40))
    def test_many_boxes_read_the_farthest_vertex_pair(self, seed):
        """3-10 boxes with corners on a grid of quarters: the diameter is the largest distance
        between two box vertices, exact where its square is a rational square."""
        rng = random.Random(seed)
        boxes = []
        for _ in range(rng.randint(3, 10)):
            box = []
            for _ in range(2):
                a = rng.randint(0, 12)
                box.append((F(a, 4), F(a + rng.randint(1, 4), 4)))
            boxes.append(tuple(box))
        union = BoxUnion(2, boxes)
        vertices = {(x, y) for (xs, ys) in union.pieces for x in xs for y in ys}
        assert len(vertices) > 8
        d2 = max((u[0] - v[0]) ** 2 + (u[1] - v[1]) ** 2 for u in vertices for v in vertices)
        n, d = math.isqrt(d2.numerator), math.isqrt(d2.denominator)
        want = F(n, d) if n * n == d2.numerator and d * d == d2.denominator else math.sqrt(d2.numerator / d2.denominator)
        got = diameter(union)
        assert got == want and isinstance(got, type(want))


def brute_force_membership(K, U, samples):
    """Check every sample x in K against open-U membership."""
    inside = []
    for x in samples:
        if K.contains_point(x):
            inside.append(any(c < x < d for c, d in U))
    return inside


class TestPrebasePredicates:
    def test_subset_examples(self):
        assert subset_of_open(IntervalUnion([(F(1, 4), F(1, 2))]), [(0, 1)])
        assert not subset_of_open(IntervalUnion([(0, F(1, 3))]), [(0, 1)])
        assert subset_of_open(IntervalUnion.empty(), [(0, 1)])

    def test_open_components_do_not_merge_at_points(self):
        K = IntervalUnion([(F(1, 4), F(3, 4))])
        assert not subset_of_open(K, [(0, F(1, 2)), (F(1, 2), 1)])
        assert subset_of_open(K, [(0, F(2, 3)), (F(1, 3), 1)])

    def test_intersects_examples(self):
        A = IntervalUnion([(0, F(1, 3)), (F(2, 3), 1)])
        assert intersects_open(A, [(F(1, 2), F(7, 10))])
        assert not intersects_open(IntervalUnion([(0, F(1, 3))]), [(F(1, 3), F(1, 2))])
        assert not intersects_open(IntervalUnion.empty(), [(0, 1)])
        K, U = IntervalUnion([(0, F(1, 10)), (F(1, 2), F(3, 5))]), [(F(2, 5), F(7, 10))]
        assert intersects_open(K, U) and intersects_open(K, (u for u in U))  # U meets K's second piece only

    def test_agreement_with_grid_oracle(self):
        rng = random.Random(13)
        for _ in range(40):
            K = random_union(rng)
            U = [
                (F(rng.randint(0, 40), 64), F(rng.randint(41, 64), 64))
                for _ in range(rng.randint(1, 3))
            ]
            samples = sorted(
                {e for a, b in K.pieces for e in (a, b, (a + b) / 2)}
            )
            member = brute_force_membership(K, U, samples)
            if subset_of_open(K, U):
                assert all(member)
            if member and any(member):
                assert intersects_open(K, U)
            if not intersects_open(K, U):
                assert not any(member)

    def test_disjoint_examples(self):
        assert disjoint_from_compact(
            IntervalUnion([(0, F(1, 4))]), IntervalUnion([(F(1, 2), F(3, 4))])
        )
        assert not disjoint_from_compact(
            IntervalUnion([(0, F(1, 2))]), IntervalUnion([(F(1, 2), 1)])
        )
        assert disjoint_from_compact(IntervalUnion.empty(), IntervalUnion.full())
        # unions in two spaces, in both orders, and an atom on a piece's end
        F01 = IntervalUnion([(0, F(1, 4)), (F(1, 2), 1)])
        K02 = IntervalUnion([(F(5, 16), F(3, 8)), (F(3, 2), 2)], space=(0, 2))
        assert disjoint_from_compact(F01, K02) and disjoint_from_compact(K02, F01)
        touching = IntervalUnion([(1, F(5, 4))], space=(0, 2))
        assert not disjoint_from_compact(F01, touching) and not disjoint_from_compact(touching, F01)
        atom = IntervalUnion([(F(1, 4), F(1, 4))])
        assert not disjoint_from_compact(F01, atom) and not disjoint_from_compact(atom, F01)


class TestSimplexPartition:
    def test_unit_interval_halves(self):
        parts = simplex_partition_1d(IntervalUnion.full(), F(1, 2))
        assert [p.pieces for p in parts] == [((F(0), F(1, 2)),), ((F(1, 2), F(1)),)]

    def test_offset_interval(self):
        parts = simplex_partition_1d(IntervalUnion([(F(1, 4), F(3, 4))]), F(1, 2))
        assert [p.pieces for p in parts] == [
            ((F(1, 4), F(1, 2)),),
            ((F(1, 2), F(3, 4)),),
        ]

    def test_empty(self):
        assert simplex_partition_1d(IntervalUnion.empty(), F(1, 2)) == []

    def test_reunion_is_exact(self):
        rng = random.Random(17)
        for _ in range(30):
            A = random_union(rng)
            grid = F(1, rng.choice([3, 4, 5, 8]))
            parts = simplex_partition_1d(A, grid)
            rejoined = IntervalUnion.from_intervals(
                [piece for part in parts for piece in part.pieces]
            )
            assert rejoined == A

    def test_adjacent_overlap_at_most_a_point(self):
        A = IntervalUnion.full()
        parts = simplex_partition_1d(A, F(1, 4))
        for p, q in zip(parts, parts[1:]):
            shared = [x for x in (e for pc in p.pieces for e in pc) if q.contains_point(x)]
            assert len(set(shared)) <= 1


class TestBoxUnionNormalization:
    def test_contained_box_is_kept(self):
        inner = ((F(1, 4), F(1, 2)), (F(1, 4), F(1, 2)))
        b = BoxUnion(2, [((0, 1), (0, 1)), inner])
        assert len(b) == 2
        assert inner in b.pieces

    def test_duplicates_collapse_and_boxes_sort(self):
        lo, hi = ((0, F(1, 2)), (0, 1)), ((F(1, 2), 1), (0, 1))
        b = BoxUnion(2, [hi, lo, hi, ((F(1, 2), 1), (F(0), F(1)))])
        assert b.pieces == (
            ((F(0), F(1, 2)), (F(0), F(1))),
            ((F(1, 2), F(1)), (F(0), F(1))),
        )


class TestAffineImages:
    def test_negative_scale_flips(self):
        u = IntervalUnion([(0, F(1, 4)), (F(1, 2), 1)])
        v = u.affine(-1, 1)
        assert v.pieces == ((F(0), F(1, 2)), (F(3, 4), F(1)))

    def test_zero_scale_rejected(self):
        with pytest.raises(GeometryError):
            IntervalUnion.full().affine(0, 0)


class TestHausdorffDistanceValue:
    def test_constructor_fields_and_float(self):
        d = HausdorffDistance(F(1, 4))
        assert (d.value, d.exact, float(d)) == (F(1, 4), True, 0.25)
        e = HausdorffDistance(value=0.5, exact=False)
        assert (e.value, e.exact, float(e)) == (0.5, False, 0.5)

    def test_negative_value_raises(self):
        with pytest.raises(GeometryError, match="distance must be nonnegative"):
            HausdorffDistance(F(-1, 3))

    def test_equal_and_hashed_as_the_pair(self):
        assert HausdorffDistance(F(1, 2)) == HausdorffDistance(F(1, 2), True)
        assert HausdorffDistance(F(1, 2)) != HausdorffDistance(F(1, 2), exact=False)
        assert HausdorffDistance(F(1, 2)) != HausdorffDistance(F(1, 3))
        assert HausdorffDistance(F(1, 2)) != (F(1, 2), True)
        assert hash(HausdorffDistance(F(1, 2))) == hash((F(1, 2), True))
        assert len({HausdorffDistance(F(1, 2)), HausdorffDistance(F(2, 4))}) == 1

    def test_repr_names_both_fields(self):
        assert repr(HausdorffDistance(F(1, 2))) == "HausdorffDistance(value=Fraction(1, 2), exact=True)"
        assert repr(HausdorffDistance(0.5, exact=False)) == "HausdorffDistance(value=0.5, exact=False)"

    def test_immutable_but_copied_and_pickled(self):
        d = HausdorffDistance(F(1, 2))
        with pytest.raises(AttributeError):
            d.value = F(1, 3)
        with pytest.raises(AttributeError):
            del d.exact
        with pytest.raises(AttributeError):
            d.other = 1
        assert copy.copy(d) == d and copy.deepcopy(d) == d and pickle.loads(pickle.dumps(d)) == d


class TestPrintLimit:
    """Terms over the interpreter's digit limit raise GeometryError, which the CLI ends with exit 3."""

    def test_the_limit_is_exact(self):
        limit = sys.get_int_max_str_digits()
        for n in (10**limit - 1, -(10**limit - 1), 2**4000, 0):
            check_printable(n)
            assert format_fraction(F(n)) == format_ratio(2 * n, 2) == f"{n}/1"
        for n in (10**limit, -(10**limit), 2**20000):
            with pytest.raises(GeometryError, match=f"more than {limit} decimal digits"):
                check_printable(n)
            with pytest.raises(GeometryError, match=f"more than {limit} decimal digits"):
                format_fraction(F(1, n) if n > 0 else F(n, 7))
            with pytest.raises(GeometryError, match=f"more than {limit} decimal digits"):
                format_ratio(n * 3 + 1, 3)

    def test_terms_are_checked_after_reduction(self):
        big = 10 ** sys.get_int_max_str_digits()
        assert format_ratio(big, 2 * big) == "1/2"

    def test_to_json_of_an_unprintable_union_raises(self):
        U = IntervalUnion([(0, F(1, 2**20000))])
        with pytest.raises(GeometryError, match="too many to print"):
            U.to_json()
