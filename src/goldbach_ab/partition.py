"""Odd partitions of 2N, their type census, and Goldbach pair extraction.

A partition 2N = a + b (both odd, 3 <= a <= b <= 2N-3) is counted once.
Partitions where both components are A-type (or both B-type) get that tag;
a partition mixing the two types would contradict the same-type rule this
package exists to check, so it is recorded as data, never raised.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from enum import Enum

from ._record import Record, set_field
from .classify import EvenTarget, btype_window, window_end
from .errors import UsageError
from .sieve import PrimeTable


class PartitionKind(Enum):
    A = "A"
    B = "B"
    MIXED = "mixed"


class OddPartition(Record):
    __slots__ = ("a", "b", "kind")

    def __init__(self, a: int, b: int, kind: PartitionKind) -> None:
        _set_a(self, a)
        _set_b(self, b)
        _set_kind(self, kind)


# The slots' own setters pass the refusing __setattr__ at less cost than
# set_field, for the millions of partitions a run of censuses builds.
_set_a, _set_b, _set_kind = (
    vars(OddPartition)[name].__set__ for name in OddPartition.__slots__)


class PartitionCensus(Record):
    """Aggregate counts over every odd partition of one even target."""

    def __init__(self, two_n: int, total: int, a_count: int, b_count: int,
                 mixed_count: int, goldbach_count: int,
                 goldbach_pairs: tuple[tuple[int, int], ...]) -> None:
        set_field(self, "two_n", two_n)
        set_field(self, "total", total)
        set_field(self, "a_count", a_count)
        set_field(self, "b_count", b_count)
        set_field(self, "mixed_count", mixed_count)
        set_field(self, "goldbach_count", goldbach_count)
        set_field(self, "goldbach_pairs", goldbach_pairs)


def partition_total(two_n: int) -> int:
    """Closed form for the number of odd partitions: (2N - 6) // 4 + 1."""
    return (two_n - 6) // 4 + 1


def odd_partitions(t: EvenTarget) -> Iterator[tuple[int, int]]:
    """All pairs (a, b), a <= b, a + b = 2N, both odd, ascending in a.

    >>> list(odd_partitions(EvenTarget(10)))
    [(3, 7), (5, 5)]
    """
    for a in range(3, t.n + 1, 2):
        yield a, t.two_n - a


def classify_partition(
    a: int, b: int, t: EvenTarget, table: PrimeTable | None = None
) -> PartitionKind:
    """Tag one partition by the classes of its two components, read off
    gcd(a, 2N) and gcd(b, 2N) as ``classify_odd`` reads them; ``table`` is
    not read.

    A MIXED result is a counterexample to the same-type rule and must be
    surfaced by the caller as a claim failure, never swallowed.
    """
    if a + b != t.two_n or a % 2 == 0 or b % 2 == 0:
        raise UsageError(f"({a}, {b}) is not an odd partition of {t.two_n}")
    if not (3 <= a <= b <= t.two_n - 3):
        raise UsageError(f"({a}, {b}) lies outside the component window of {t.two_n}")
    return kind_of_prime_pair(a, b, t.two_n)


def goldbach_partitions(t: EvenTarget, table: PrimeTable) -> list[OddPartition]:
    """The prime-prime partitions of 2N, each tagged with its kind."""
    pairs = goldbach_pairs(t.two_n, table)
    return [OddPartition(p, q, kind_of_prime_pair(p, q, t.two_n)) for p, q in pairs]


def census(t: EvenTarget, table: PrimeTable) -> PartitionCensus:
    """Count every odd partition of 2N by kind and extract the prime pairs.

    Every odd factor that ``factorize`` returns divides 2N, so a is B-type
    iff 2N - a is: no partition is mixed, and the first h bytes of the
    B-type window, one per partition (a, 2N - a), count the B-type ones.
    """
    h = partition_total(t.two_n)
    b_count = btype_window(t, table).count(1, 0, h)
    pairs = goldbach_pairs(t.two_n, table)
    return PartitionCensus(
        two_n=t.two_n,
        total=h,
        a_count=h - b_count,
        b_count=b_count,
        mixed_count=0,
        goldbach_count=len(pairs),
        goldbach_pairs=pairs,
    )


def mirror_pair(window: bytes, h: int) -> tuple[int, int]:
    """The first h bytes of the 0/1 ``window`` and of its reversal as ints,
    byte j to bit 8j, the reversal read big-endian in place: bit 8j of the
    pair stands for the partition (3 + 2j, 2N - 3 - 2j).

    >>> mirror_pair(bytes([1, 0, 0, 1, 1]), 2)
    (1, 257)
    """
    return (int.from_bytes(window[:h], "little"),
            int.from_bytes(window[len(window) - h :], "big"))


def prime_mirror(two_n: int, source) -> tuple[int, int]:
    """``mirror_pair`` of the prime window of 2N, the odds 3 to 2N - 3, read
    at its two ends off ``source.odds``, a table's or a chunk context's."""
    h = partition_total(two_n)
    return (int.from_bytes(source.odds(3, 2 * h + 1), "little"),
            int.from_bytes(source.odds(two_n - 1 - 2 * h, two_n - 3), "big"))


def goldbach_pairs(two_n: int, table: PrimeTable) -> tuple[tuple[int, int], ...]:
    """The (p, q) prime pairs of 2N, p <= q, read off the table's window."""
    window_end(two_n, table)
    pf, pr = prime_mirror(two_n, table)
    both = (pf & pr).to_bytes(partition_total(two_n), "little")
    pairs = []
    i = both.find(1)
    while i >= 0:
        a = 3 + 2 * i
        pairs.append((a, two_n - a))
        i = both.find(1, i + 1)
    return tuple(pairs)


def mixed_partitions(two_n: int, bmask: bytes) -> tuple[int, tuple[int, int] | None]:
    """(count, smallest-a member) of the partitions of 2N whose components the
    B-type window ``bmask`` classifies differently."""
    fwd, rev = mirror_pair(bmask, partition_total(two_n))
    diff = fwd ^ rev
    if not diff:
        return 0, None
    a = 3 + 2 * (((diff & -diff).bit_length() - 1) >> 3)
    return diff.bit_count(), (a, two_n - a)


def self_pair(t: EvenTarget, table: PrimeTable) -> tuple[int, int] | None:
    """The partition (N, N) when it is a prime pair, else None.

    Such a pair always has both components dividing 2N, making it the only
    possible B-type Goldbach pair.
    """
    n = t.n
    if n % 2 == 1 and table.odds(n, n)[0]:
        return (n, n)
    return None


def kind_of_prime_pair(p: int, q: int, two_n: int) -> PartitionKind:
    """Kind of a known prime pair via gcd on each side."""
    pa = math.gcd(p, two_n) == 1
    pb = math.gcd(q, two_n) == 1
    if pa and pb:
        return PartitionKind.A
    if not pa and not pb:
        return PartitionKind.B
    return PartitionKind.MIXED
