"""Deterministic primality helpers for block schedules and residue arithmetic."""

from __future__ import annotations

from functools import cache
from itertools import compress

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Deterministic Miller-Rabin witness sets (valid for n below the listed bounds).
_MR_BOUNDS = (
    (341531, (9345883071009581737,)),
    (1050535501, (336781006125, 9639812373923155)),
    (3215031751, (2, 3, 5, 7)),
    (3474749660383, (2, 3, 5, 7, 11, 13)),
    (341550071728321, (2, 3, 5, 7, 11, 13, 17)),
    (3825123056546413051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
)
_MR_DEFAULT = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _mr_witness(n: int, a: int) -> bool:
    """Return True when a witnesses compositeness of odd n > 2."""
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(a % n, d, n)
    if x in (0, 1, n - 1):
        return False
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    witnesses = _MR_DEFAULT
    for bound, ws in _MR_BOUNDS:
        if n < bound:
            witnesses = ws
            break
    return not any(_mr_witness(n, a) for a in witnesses)


_SIEVE_BITS = 384  # from about this size on, sieving saves more Miller-Rabin work than it costs


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than n.

    Odd candidates are taken in windows; from `_SIEVE_BITS` bits on, a window
    is first sieved by the odd primes below 2^16 (all below the window), so
    only candidates without a small factor reach `is_prime`.
    """
    k = n + 1
    if k <= 2:
        return 2
    k |= 1
    width = k.bit_length()  # odd candidates k + 2i per window, about 1.4 mean prime gaps
    sieve = _sieve_primes() if width >= _SIEVE_BITS else ()
    while True:
        alive = bytearray(b"\x01") * width
        for p in sieve:
            i = -k % p * ((p + 1) // 2) % p  # the first i with p | k + 2i
            alive[i::p] = bytes(len(range(i, width, p)))
        for i in compress(range(width), alive):
            if is_prime(k + 2 * i):
                return k + 2 * i
        k += 2 * width


@cache
def _sieve_primes() -> list[int]:
    """The odd primes below 2^16, sieved once."""
    return primes_in_range(3, 1 << 16)


def primes_in_range(lo: int, hi: int) -> list[int]:
    """All primes p with lo <= p < hi, by sieve."""
    if hi <= 2 or hi <= lo:
        return []
    sieve = bytearray([1]) * hi
    sieve[0:2] = b"\x00\x00"
    for p in range(2, int(hi**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = b"\x00" * len(sieve[p * p :: p])
    return [n for n in range(max(lo, 2), hi) if sieve[n]]
