import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from salemlab.bitseq import (
    PERIOD_BOUND,
    BitMatrix,
    BitSequence,
    p3_member,
    phi_transform,
    q2_member,
)


class TestBitSequence:
    def test_parsing(self):
        assert BitSequence.from_string("110").bits(5) == (1, 1, 0, 0, 0)
        assert BitSequence.from_string("(10)").bits(5) == (1, 0, 1, 0, 1)
        assert BitSequence.from_string("11(01)").bits(6) == (1, 1, 0, 1, 0, 1)
        assert BitSequence.from_string("0^w").is_zero
        assert BitSequence.from_string("1(0)^w") == BitSequence.from_string("1")
        for text in ("1x0", "1^w0", "(1^w0)", "ω1", "1^w^w"):
            with pytest.raises(ValueError):
                BitSequence.from_string(text)

    def test_canonical_equality(self):
        assert BitSequence.from_string("101(01)") == BitSequence.from_string("(10)")
        assert BitSequence.from_string("10") == BitSequence.from_string("1")
        assert BitSequence.from_string("1(11)") == BitSequence.from_string("(1)")
        assert BitSequence.from_string("0(10)") != BitSequence.from_string("(10)")

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_canonical_form_is_the_shortest_period_after_the_shortest_prefix(self, data):
        period = data.draw(st.lists(st.sampled_from([0, 1]), min_size=1, max_size=8), label="period")
        period *= data.draw(st.integers(1, 3), label="repeats")  # a period that is not minimal
        head = data.draw(st.lists(st.sampled_from([0, 1]), max_size=6), label="head")
        # a prefix that often ends in a run of the periodic part, which the canonical form absorbs
        run = (period * 3)[len(period) * 3 - data.draw(st.integers(0, 2 * len(period)), label="run"):]
        prefix = head + run
        seq = BitSequence(prefix, period)
        bits = prefix + period * 2  # the first |prefix| + 2|period| bits
        n = len(prefix) + len(period)  # s[i] = s[i + p] for all i >= m iff it holds for m <= i < n

        def repeats(m, p):
            return all(bits[i] == bits[i + p] for i in range(m, n))

        p = next(p for p in range(1, len(period) + 1) if repeats(len(prefix), p))
        m = next(m for m in range(len(prefix) + 1) if repeats(m, p))
        assert seq.period == tuple(bits[m:m + p]) and seq.prefix == tuple(bits[:m])
        assert seq.bits(len(bits)) == tuple(bits)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_omega_suffix_is_read_at_the_end_only(self, data):
        """'^w', '^ω' or 'ω' ends a literal and changes nothing; anywhere else the literal is refused."""
        prefix = "".join(data.draw(st.lists(st.sampled_from("01"), max_size=5), label="prefix"))
        period = "".join(data.draw(st.lists(st.sampled_from("01"), max_size=4), label="period"))
        text = prefix + (f"({period})" if period else "")
        omega = data.draw(st.sampled_from(["^w", "^ω", "ω"]), label="omega")
        assert BitSequence.from_string(text + omega) == BitSequence.from_string(text)
        inner = text or "1"
        cut = data.draw(st.integers(0, len(inner) - 1), label="cut")  # at least one character follows
        with pytest.raises(ValueError, match="bad bit-sequence literal"):
            BitSequence.from_string(inner[:cut] + omega + inner[cut:])

    def test_q2_membership(self):
        assert q2_member(BitSequence.from_string("110000"))
        assert not q2_member(BitSequence.from_string("(10)"))
        assert q2_member(BitSequence.zero())

    def test_or_closure(self):
        a = BitSequence.from_string("1(001)")
        b = BitSequence.from_string("(01)")
        c = a | b
        for n in range(24):
            assert c.bit(n) == max(a.bit(n), b.bit(n))

    def test_or_refuses_a_period_above_the_bound_before_building_it(self):
        """The period of a | b is the lcm of both periods: up to PERIOD_BOUND it is built, above it refused."""
        def one_in(p):
            return BitSequence((), (1,) + (0,) * (p - 1))

        assert len((one_in(PERIOD_BOUND) | BitSequence.from_string("(01)")).period) == PERIOD_BOUND
        with pytest.raises(ValueError, match=f"^the pointwise max has period 4160, above the bound of {PERIOD_BOUND}$"):
            one_in(64) | one_in(65)


class TestPhiTransform:
    def test_zero_matrix_fixed(self):
        assert phi_transform(BitMatrix.zero()) == BitMatrix.zero()

    def test_single_one_propagates_down_rows(self):
        x = BitMatrix({0: BitSequence.from_string("000001")}, )
        y = phi_transform(x)
        for m in range(4):
            assert y.row(m).bit(5) == 1
        assert y.tail.bit(5) == 1

    def test_idempotent(self):
        alphabet = [
            BitSequence.zero(),
            BitSequence.from_string("(1)"),
            BitSequence.from_string("(10)"),
            BitSequence.from_string("11"),
        ]
        mats = []
        for r0 in alphabet:
            for r1 in alphabet:
                mats.append(BitMatrix.from_rows([r0, r1]))
        for m in mats:
            once = phi_transform(m)
            assert phi_transform(once) == once

    def test_rows_monotone(self):
        x = BitMatrix.from_rows(
            [BitSequence.from_string("100"), BitSequence.from_string("(01)")]
        )
        y = phi_transform(x)
        for m in range(3):
            lo, hi = y.row(m), y.row(m + 1)
            assert (lo | hi) == hi

    def test_p3_preserved(self):
        good = BitMatrix.from_rows([BitSequence.from_string("111"), BitSequence.zero()])
        bad = BitMatrix.from_rows([BitSequence.zero(), BitSequence.from_string("(10)")])
        assert p3_member(good) and p3_member(phi_transform(good))
        assert not p3_member(bad) and not p3_member(phi_transform(bad))

    def test_periodic_row_breaks_p3(self):
        m = BitMatrix({2: BitSequence.from_string("(1)")})
        assert not p3_member(m)


class TestBitMatrix:
    def test_default_rows_zero_below_tail_above(self):
        x = BitMatrix({1: BitSequence.from_string("1")}, tail=BitSequence.from_string("(1)"))
        assert x.row(0).is_zero
        assert x.row(1).bit(0) == 1
        assert x.row(5) == BitSequence.from_string("(1)")

    def test_equality_ignores_representation(self):
        a = BitMatrix.from_rows([BitSequence.zero(), BitSequence.from_string("1")])
        b = BitMatrix({1: BitSequence.from_string("1")})
        assert a == b
