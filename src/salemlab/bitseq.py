"""Finitely represented binary sequences and matrices.

A BitSequence is eventually periodic: a finite prefix followed by a
repeating period.  Finite-support sequences are the special case of an
all-zero period.  Membership in the "eventually zero" family and its
row-wise matrix analogue are decidable on this representation.
"""

from __future__ import annotations

import re
from math import gcd
from typing import Iterable, Mapping

from .geometry import _Record


def _minimize_period(period: tuple[int, ...]) -> tuple[int, ...]:
    n = len(period)
    for d in range(1, n):
        if n % d == 0 and period == period[:d] * (n // d):
            return period[:d]
    return period


class BitSequence(_Record):
    """An element of the binary sequence space, finitely represented; an immutable value whose prefix
    and period are canonical (minimal period, shortest prefix), so equal sequences have equal fields."""

    __slots__ = ("prefix", "period")

    def __init__(self, prefix: Iterable[int] = (), period: Iterable[int] = (0,)) -> None:
        pre = tuple(int(b) for b in prefix)
        per = tuple(int(b) for b in period)
        if not per:
            raise ValueError("period must be nonempty")
        if any(b not in (0, 1) for b in pre + per):
            raise ValueError("bits must be 0 or 1")
        per = _minimize_period(per)
        # absorb a prefix tail that already matches the periodic part
        while pre and pre[-1] == per[-1]:
            pre = pre[:-1]
            per = per[-1:] + per[:-1]  # a rotation of a minimal period is minimal
        super().__init__(pre, per)

    @classmethod
    def zero(cls) -> "BitSequence":
        return cls()

    @classmethod
    def from_string(cls, text: str) -> "BitSequence":
        """Parse '110', '11(01)' or '(10)'; a trailing '^w' is tolerated."""
        s = text.strip().replace("^w", "").replace("^ω", "").replace("ω", "")
        m = re.fullmatch(r"([01]*)(?:\(([01]+)\))?", s)
        if not m:
            raise ValueError(f"bad bit-sequence literal: {text!r}")
        pre, per = m.group(1), m.group(2)
        return cls(tuple(int(c) for c in pre), tuple(int(c) for c in per) if per else (0,))

    def __str__(self) -> str:
        pre = "".join(map(str, self.prefix))
        if self.is_eventually_zero:
            return pre if pre else "0"
        return f"{pre}({''.join(map(str, self.period))})"

    def __repr__(self) -> str:
        return f"BitSequence({str(self)!r})"

    def bit(self, n: int) -> int:
        if n < 0:
            raise IndexError("negative position")
        if n < len(self.prefix):
            return self.prefix[n]
        return self.period[(n - len(self.prefix)) % len(self.period)]

    def bits(self, n: int) -> tuple[int, ...]:
        """First n bits."""
        return tuple(self.bit(i) for i in range(n))

    @property
    def is_eventually_zero(self) -> bool:
        return all(b == 0 for b in self.period)

    @property
    def is_zero(self) -> bool:
        return self.is_eventually_zero and all(b == 0 for b in self.prefix)

    def __or__(self, other: "BitSequence") -> "BitSequence":
        """Pointwise max, closed on the eventually-periodic representation."""
        head = max(len(self.prefix), len(other.prefix))
        per = len(self.period) * len(other.period) // gcd(len(self.period), len(other.period))
        pre = tuple(self.bit(i) | other.bit(i) for i in range(head))
        cyc = tuple(self.bit(head + i) | other.bit(head + i) for i in range(per))
        return BitSequence(pre, cyc)


ZERO_SEQ = BitSequence.zero()


def q2_member(x: BitSequence) -> bool:
    """Decide membership in the eventually-zero family."""
    return x.is_eventually_zero


class BitMatrix(_Record):
    """Row-indexed family of BitSequences, almost all equal to a tail row.

    Explicitly stored rows override the defaults; absent rows below the
    largest explicit index are all-zero, rows above it equal `tail`
    (all-zero unless the matrix arose from the cumulative-max transform).
    """

    __slots__ = ("_rows", "tail")

    def __init__(
        self,
        rows: Mapping[int, BitSequence] | Iterable[tuple[int, BitSequence]] = (),
        tail: BitSequence = ZERO_SEQ,
    ) -> None:
        items = dict(rows.items()) if isinstance(rows, Mapping) else dict(rows)
        for k, v in items.items():
            if k < 0:
                raise ValueError("row indices must be nonnegative")
            if not isinstance(v, BitSequence):
                raise TypeError("rows must be BitSequences")
        super().__init__({k: items[k] for k in sorted(items)}, tail)

    @classmethod
    def from_rows(cls, rows: Iterable[BitSequence]) -> "BitMatrix":
        return cls({i: r for i, r in enumerate(rows)})

    @classmethod
    def zero(cls) -> "BitMatrix":
        return cls()

    @property
    def explicit_rows(self) -> dict[int, BitSequence]:
        return dict(self._rows)

    @property
    def max_row(self) -> int:
        return max(self._rows) if self._rows else -1

    def row(self, m: int) -> BitSequence:
        if m in self._rows:
            return self._rows[m]
        return self.tail if m > self.max_row else ZERO_SEQ

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitMatrix):
            return False
        top = max(self.max_row, other.max_row) + 1
        return self.tail == other.tail and all(
            self.row(m) == other.row(m) for m in range(top)
        )

    def __repr__(self) -> str:
        rows = ", ".join(f"{k}:{v}" for k, v in self._rows.items())
        return f"BitMatrix({{{rows}}}, tail={self.tail})"


def p3_member(x: BitMatrix) -> bool:
    """Decide whether every row of x is eventually zero."""
    return x.tail.is_eventually_zero and all(
        r.is_eventually_zero for r in x.explicit_rows.values()
    )


def phi_transform(x: BitMatrix) -> BitMatrix:
    """Cumulative row maximum: output row m is the pointwise max of rows 0..m.

    Idempotent, monotone in the row index, and membership-preserving for
    the all-rows-eventually-zero family.
    """
    top = x.max_row
    out: dict[int, BitSequence] = {}
    acc = ZERO_SEQ
    for m in range(top + 1):
        acc = acc | x.row(m)
        out[m] = acc
    return BitMatrix(out, tail=acc | x.tail)
