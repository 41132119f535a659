"""Prime generation, primality testing and factorization services.

Everything downstream works against a PrimeTable: an immutable, sieve-backed
oracle for the primes up to a configured limit.  The table is the sieve's
bitmap of the odd numbers, the one source of primality, indexed only by its
own reads ``odds``, ``count`` and ``odd_primes``; trial division reads the
small primes up to the square root of the limit, which a fresh sieve gives,
and the tuple of every prime below the limit is derived from the bitmap only
when asked for.  Queries past the limit fall back to a Miller-Rabin test
with a witness set that is deterministic for all 64-bit integers, and
factorization of large cofactors uses Brent's cycle variant of Pollard rho.
"""

from __future__ import annotations

import io
import math
import os
from functools import cached_property
from itertools import chain, compress
from operator import ne

from ._record import Record, set_field
from .errors import UsageError

# Segment width (count of odd numbers per segment) used while sieving.
# 2**18 bytes keeps the working set inside L2 on commodity hardware.
DEFAULT_SEGMENT_SIZE = 1 << 18

# Witness set proven deterministic for every n < 2**64
# (see https://miller-rabin.appspot.com/).
_U64_WITNESSES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_U64_BOUND = 1 << 64


class FactorMultiset(Record):
    """A complete factorization as (prime, exponent) pairs, primes ascending.

    The empty multiset represents 1.
    """

    def __init__(self, factors: tuple[tuple[int, int], ...]) -> None:
        set_field(self, "factors", factors)

    @classmethod
    def from_dict(cls, exps: dict[int, int]) -> "FactorMultiset":
        return cls(tuple(sorted(exps.items())))

    def as_dict(self) -> dict[int, int]:
        return dict(self.factors)

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def value(self) -> int:
        out = 1
        for p, e in self.factors:
            out *= p**e
        return out

    def __iter__(self):
        return iter(self.factors)

    def __len__(self) -> int:
        return len(self.factors)


class PrimeTable(Record):
    """Immutable sieve output: primality of every integer up to ``limit``.

    ``odd_bits[i]`` is 1 exactly when ``2*i + 1`` is prime, so the bitmap
    covers the odd numbers only; 2 is special-cased everywhere, and no route
    but this class's members reads it.  ``small_primes`` holds 2 and the odd
    primes up to sqrt(limit), all that trial division below the limit needs,
    from a fresh sieve, so that no bit of the table changes which are tried.
    ``prime_list``, every prime up to ``limit``, and ``departures`` are
    derived on first access and cached, and pickling drops them; a table
    that ``build_table`` returns holds no departures, as it is that sieve.
    """

    def __init__(self, limit: int, odd_bits: bytes) -> None:
        set_field(self, "limit", limit)
        set_field(self, "odd_bits", odd_bits)

    @cached_property
    def prime_list(self) -> tuple[int, ...]:
        return (2, *self.odd_primes(3, self.limit))

    @cached_property
    def departures(self) -> tuple[int, ...]:
        """The odds that the bitmap marks otherwise than a fresh sieve would."""
        fresh, bits, w = build_table(self.limit).odd_bits, self.odd_bits, 1 << 14
        if fresh == bits:
            return ()
        cuts = ((i, fresh[i : i + w], bits[i : i + w]) for i in range(0, len(fresh), w))
        return tuple(2 * j + 1 for i, a, b in cuts if a != b
                     for j in compress(range(i, i + w), map(ne, a, b)))

    @cached_property
    def small_primes(self) -> tuple[int, ...]:
        """2 and the odd primes up to sqrt(limit), from a fresh sieve."""
        return (2, *_base_primes(self.limit))

    def odds(self, lo: int, hi: int) -> bytes:
        """The bitmap of the odds from lo to hi, 0 <= lo and hi <= limit: byte
        j is 1 exactly when the odd (lo | 1) + 2j is marked prime.

        >>> list(build_table(15).odds(4, 9))  # 5, 7, 9
        [1, 1, 0]
        """
        if hi > self.limit:
            raise UsageError(f"{hi} exceeds table limit {self.limit}")
        return self.odd_bits[lo >> 1 : (hi + 1) >> 1]

    def count(self, lo: int, hi: int) -> int:
        """How many odds from lo to hi ``odds(lo, hi)`` marks, counted in place.

        >>> build_table(15).count(4, 15)  # 5, 7, 11, 13
        4
        """
        if hi > self.limit:
            raise UsageError(f"{hi} exceeds table limit {self.limit}")
        return self.odd_bits.count(1, lo >> 1, (hi + 1) >> 1)

    def odd_primes(self, lo: int, hi: int):
        """Iterator over the odd primes p with lo <= p <= hi <= limit,
        ascending; it copies nothing, so stopping early costs nothing more.

        >>> list(build_table(100).odd_primes(90, 100))
        [97]
        >>> build_table(100).odd_primes(90, 200)
        Traceback (most recent call last):
        ...
        goldbach_ab.errors.UsageError: 200 exceeds table limit 100
        """
        if hi > self.limit:
            raise UsageError(f"{hi} exceeds table limit {self.limit}")
        first = max(lo, 3) | 1
        bits = memoryview(self.odd_bits)[first >> 1 : (hi >> 1) + 1]
        return compress(range(first, hi + 1, 2), bits)


def _base_primes(limit: int) -> list[int]:
    """The odd primes up to sqrt(limit), read off a fresh table of that limit."""
    root = math.isqrt(limit)
    return list(build_table(root).odd_primes(3, root)) if root > 2 else []


def _strike_odds(bits: bytearray, first: int, primes) -> None:
    """Clear in ``bits``, whose byte j stands for the odd first + 2j, the odd
    multiples of each odd prime p from max(p * p, first) on; ``primes``
    ascend and are read only while p * p lies in the window."""
    last = first + 2 * len(bits) - 2
    for p in primes:
        if p * p > last:
            break
        idx = (max(p * p, (-(-first // p) | 1) * p) - first) >> 1  # odd multiples
        bits[idx::p] = bytes(len(range(idx, len(bits), p)))


def build_table(limit: int, segment_size: int = DEFAULT_SEGMENT_SIZE) -> PrimeTable:
    """Sieve all primes up to ``limit`` (inclusive), one segment at a time.

    Each segment is sieved in its own buffer and appended to the bitmap, so
    beyond the bitmap itself memory stays bounded by the segment width plus
    the base primes below sqrt(limit) (``_base_primes``).
    A bitmap larger than the machine's physical memory is refused up front.

    >>> build_table(10).prime_list
    (2, 3, 5, 7)
    """
    if limit < 2:
        raise UsageError(f"sieve limit must be >= 2, got {limit}")
    if segment_size < 1:
        raise UsageError(f"segment size must be >= 1, got {segment_size}")

    half = (limit + 1) // 2
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no figure on this platform
        memory = 0
    if 0 < memory < half:
        raise UsageError(f"a table of limit {limit} needs {half} bytes, more than "
                         f"the {memory} bytes of physical memory")
    base = _base_primes(limit)
    out = io.BytesIO()

    for seg_lo in range(0, half, segment_size):
        seg = bytearray(b"\x01") * (min(seg_lo + segment_size, half) - seg_lo)
        _strike_odds(seg, 2 * seg_lo + 1, base)
        if seg_lo == 0:
            seg[0] = 0  # 1 is not prime
        out.write(seg)

    # getvalue() hands over the buffer itself: the bitmap is held once
    table = PrimeTable(limit, out.getvalue())
    vars(table)["departures"] = ()  # the table is the fresh sieve
    return table


def _mr_witness(n: int, a: int, d: int, s: int) -> bool:
    """True when ``a`` certifies n composite (n - 1 = d * 2**s, d odd)."""
    a %= n
    if a == 0:
        return False
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def _is_prime_u64(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every n below 2**64."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    return not any(_mr_witness(n, a, d, s) for a in _U64_WITNESSES)


def is_prime(n: int, table: PrimeTable) -> bool:
    """Primality of any n below 2**64; table lookups up to the sieve limit.

    >>> t = build_table(100)
    >>> is_prime(97, t), is_prime(91, t), is_prime(1, t)
    (True, False, False)
    """
    if n >= _U64_BOUND:
        raise UsageError(f"{n} exceeds the supported 64-bit input range")
    if n < 2:
        return False
    if n == 2:
        return True
    if n % 2 == 0:
        return False
    if n <= table.limit:
        return table.odds(n, n) == b"\x01"
    return _is_prime_u64(n)


def odd_prime_bytes(lo: int, hi: int, table: PrimeTable) -> bytes:
    """One byte per odd from max(lo, 3) rounded up to odd to hi, 1 where the
    odd is prime, read off the table's bitmap.

    Windows beyond the table limit are sieved afresh while sqrt(hi) stays
    within the table (i.e. hi <= limit**2) and hi fits in 64 bits.  They are
    struck with a fresh sieve's primes up to sqrt(hi) (``_base_primes``), as
    ``small_primes`` are, so no table bit decides a prime past the limit.
    """
    if lo > hi:
        raise UsageError(f"empty window: lo={lo} > hi={hi}")
    if hi > table.limit and (hi >= _U64_BOUND or math.isqrt(hi) > table.limit):
        raise UsageError(
            f"window end {hi} exceeds the width supported by a table of limit "
            f"{table.limit}"
        )
    first = max(lo, 3) | 1  # round up to odd
    if hi <= table.limit:
        return table.odds(first, hi)
    bits = bytearray(b"\x01") * ((hi - first) // 2 + 1)
    _strike_odds(bits, first, _base_primes(hi))
    return bytes(bits)


def primes_in(lo: int, hi: int, table: PrimeTable) -> list[int]:
    """Ascending primes p with lo <= p <= hi, read off the table's bitmap;
    windows beyond the limit as ``odd_prime_bytes`` sieves them."""
    bits = odd_prime_bytes(lo, hi, table)
    out = [2] if lo <= 2 <= hi else []
    out.extend(compress(range(max(lo, 3) | 1, hi + 1, 2), bits))
    return out


def factorize(n: int, table: PrimeTable) -> FactorMultiset:
    """Complete factorization of n >= 1; factorize(1) is the empty multiset.

    Trial division handles the bulk: over the small primes when n <= limit,
    and on up the table for larger n.  A cofactor left at or below the limit
    is prime, as the small primes, a fresh sieve's, reach its root; a larger
    one is resolved by Miller-Rabin plus Pollard rho, so every 64-bit input
    factors completely on any table, one with doctored bits included.

    >>> factorize(12, build_table(100)).as_dict()
    {2: 2, 3: 1}
    """
    if n < 1:
        raise UsageError(f"factorize expects n >= 1, got {n}")
    if n >= _U64_BOUND:
        raise UsageError(f"{n} exceeds the supported 64-bit input range")
    exps: dict[int, int] = {}
    primes = table.small_primes
    if n > table.limit:
        primes = chain(primes, table.odd_primes(math.isqrt(table.limit) + 1,
                                                table.limit))
    for p in primes:
        if p * p > n:
            break
        if n % p == 0:
            e = 1
            n //= p
            while n % p == 0:
                e += 1
                n //= p
            exps[p] = e
    if n > 1:
        if n <= table.limit:
            exps[n] = exps.get(n, 0) + 1
        else:  # the table's primes above the small ones are its bits: trust none
            _factor_large(n, exps)
    return FactorMultiset.from_dict(exps)


def _factor_large(n: int, exps: dict[int, int]) -> None:
    """Split n, odd and past the trial division, into primes via Pollard rho."""
    stack = [n]
    while stack:
        m = stack.pop()
        if _is_prime_u64(m):
            exps[m] = exps.get(m, 0) + 1
            continue
        d = _rho_brent(m)
        stack.append(d)
        stack.append(m // d)


def _rho_brent(n: int) -> int:
    """Nontrivial factor of odd composite n, Brent's cycle-finding rho.

    The polynomial increment walks a fixed sequence, so results are
    reproducible run to run.
    """
    if n % 2 == 0:
        return 2
    for c in range(1, 64):
        y, r, q = 2, 1, 1
        g, ys, x = 1, y, y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to split {n}")  # unreachable for 64-bit


def pi_upto(x: int, table: PrimeTable) -> int:
    """Count of primes <= x, answered from the table (x must be <= limit)."""
    if x < 2:
        return 0
    return 1 + table.count(3, x)
