"""Typing of primes and odd numbers against an even target 2N.

An odd number strictly between 1 and 2N-1, prime or not, is *A-type* for
2N when its gcd with 2N is 1, and *B-type* otherwise.  For a true prime q
that is whether q divides 2N; every route reads the gcd, so a composite
that a doctored table marks prime is typed as any other odd number is.

Window convention used throughout the package: the odd numbers
3, 5, ..., 2N-3 are indexed by i = (value - 3) // 2, giving a window of
length N - 2.
"""

from __future__ import annotations

import math
from enum import Enum
from itertools import compress

from ._record import Record, set_field
from .errors import UsageError
from .sieve import FactorMultiset, PrimeTable, factorize, odd_prime_bytes


class NumberClass(Enum):
    A = "A"
    B = "B"


class EvenTarget(Record):
    """The even number under analysis; must be >= 6."""

    def __init__(self, two_n: int) -> None:
        if two_n % 2 != 0:
            raise UsageError(f"target must be even, got {two_n}")
        if two_n < 6:
            raise UsageError(f"target must be >= 6, got {two_n}")
        set_field(self, "two_n", two_n)

    @property
    def n(self) -> int:
        return self.two_n // 2

    @property
    def window_len(self) -> int:
        """Number of odd values in [3, 2N-3]."""
        return self.n - 2


class EvenFactorization(Record):
    """2N = 2**m * product(odd prime powers)."""

    def __init__(self, m: int, b_factors: FactorMultiset) -> None:
        set_field(self, "m", m)
        set_field(self, "b_factors", b_factors)

    def value(self) -> int:
        return (1 << self.m) * self.b_factors.value()


class PrimeSplit(Record):
    """The A/B partition, by gcd with 2N, of the odd primes in the open
    interval (1, 2N-1).

    ``s`` counts the A-type primes; the interval excludes both endpoints, so
    a prime equal to 2N-1 does not appear on either side.
    """

    def __init__(self, two_n: int, a_primes: tuple[int, ...],
                 b_primes: tuple[int, ...], s: int) -> None:
        set_field(self, "two_n", two_n)
        set_field(self, "a_primes", a_primes)
        set_field(self, "b_primes", b_primes)
        set_field(self, "s", s)


def factorize_even(t: EvenTarget, table: PrimeTable) -> EvenFactorization:
    """Split 2N into its power of two and its odd prime-power part."""
    two_n = t.two_n
    m = 0
    while two_n % 2 == 0:
        m += 1
        two_n //= 2
    return EvenFactorization(m=m, b_factors=factorize(two_n, table))


def split_primes(t: EvenTarget, table: PrimeTable) -> PrimeSplit:
    """Enumerate the odd primes in (1, 2N-1), those the table marks
    (``odd_prime_bytes``), and put q among the A-primes iff gcd(q, 2N) = 1.

    The gcd is read off the B-type window (``btype_window``), which marks
    the odd multiples of the odd primes of 2N: exactly the odds whose gcd
    with 2N exceeds 1; ``factorize`` gives those primes exactly on any table.
    Both windows pack to ints, one
    byte per odd, so each side of the split is one AND; the A-primes are
    read with one ``compress``, the few B-primes with ``find``.
    """
    two_n = t.two_n
    odds = range(3, two_n - 2, 2)
    marked = int.from_bytes(odd_prime_bytes(3, two_n - 3, table), "little")
    btype = int.from_bytes(btype_window(t, table), "little")
    a = tuple(compress(odds, (marked & ~btype).to_bytes(len(odds), "little")))
    shared = (marked & btype).to_bytes(len(odds), "little")
    b = []
    i = shared.find(1)
    while i >= 0:
        b.append(odds[i])
        i = shared.find(1, i + 1)
    return PrimeSplit(two_n=two_n, a_primes=a, b_primes=tuple(b), s=len(a))


def classify_odd(m: int, t: EvenTarget, table: PrimeTable) -> NumberClass:
    """Classify an odd number in [3, 2N-3] by its gcd with 2N, the rule
    ``split_primes`` applies to the primes.

    The gcd route used here agrees with factoring m and checking each prime
    factor's divisibility into 2N; the test suite holds the two routes
    together.
    """
    _check_window(m, t)
    return NumberClass.A if math.gcd(m, t.two_n) == 1 else NumberClass.B


def _check_window(m: int, t: EvenTarget) -> None:
    if m % 2 == 0:
        raise UsageError(f"classification applies to odd numbers, got {m}")
    if not 3 <= m <= t.two_n - 3:
        raise UsageError(f"{m} lies outside [3, {t.two_n - 3}] for 2N={t.two_n}")


def btype_window(t: EvenTarget, table: PrimeTable) -> bytes:
    """Factor-route classification of the whole window in one shot.

    Returns one byte per odd value 3, 5, ..., 2N-3: 1 where the value shares
    an odd prime factor with 2N (B-type), 0 where it is coprime (A-type).
    Built by striding over the multiples of each odd prime factor of 2N, so
    it never computes a gcd.
    """
    fac = factorize_even(t, table)
    return btype_bytes(t.window_len, fac.b_factors.primes())


def btype_bytes(window_len: int, odd_factors: tuple[int, ...]) -> bytes:
    """Mark odd multiples of the given odd primes over an index window.

    Index i stands for the odd value 3 + 2i; consecutive odd multiples of p
    differ by 2p, i.e. by p index steps.
    """
    mask = bytearray(window_len)
    for p in odd_factors:
        i0 = (p - 3) >> 1
        if i0 < window_len:
            mask[i0::p] = b"\x01" * len(range(i0, window_len, p))
    return bytes(mask)


def window_end(two_n: int, table: PrimeTable) -> None:
    """Check that the table reaches 2N - 3, the last odd of the window of 2N."""
    if table.limit < two_n - 3:
        raise UsageError(
            f"table limit {table.limit} does not cover the window of 2N={two_n}"
        )
