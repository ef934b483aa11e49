"""A fixed job that shows how fast the host runs Python right now.

The benchmark times it between ops and scales each op's latency by how
much slower or faster it ran than usual.  Run as a script, it is the
child-process form timed between CLI children (interpreter start-up
included, like theirs).  No change to the program moves it.
"""

from fractions import Fraction

XS = [Fraction(i, 3**7) for i in range(1, 1200)]


def work() -> list[Fraction]:
    """Fraction arithmetic, compares and a keyed sort: the program's hot-path mix."""
    acc = Fraction(0)
    for x in XS:
        acc = max(acc, abs(x - acc / 3))
    return sorted(XS, key=lambda f: f.numerator % 97)


if __name__ == "__main__":
    work()
