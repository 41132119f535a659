"""Naive reference implementations used as oracles.

Everything here sticks to trial division, direct enumeration and gcd, and
shares no code with the package's sieve/mask machinery, so agreement between
the two is meaningful.
"""

import math


def is_prime_td(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def primes_td(limit: int) -> list[int]:
    return [p for p in range(2, limit + 1) if is_prime_td(p)]


def simple_sieve(limit: int) -> list[int]:
    """Classic full boolean-list sieve, kept structurally unlike the package's."""
    if limit < 2:
        return []
    flags = [True] * (limit + 1)
    flags[0] = flags[1] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            for m in range(p * p, limit + 1, p):
                flags[m] = False
    return [i for i, ok in enumerate(flags) if ok]


def factorize_td(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def number_class_gcd(m: int, two_n: int) -> str:
    return "A" if math.gcd(m, two_n) == 1 else "B"


def number_class_factors(m: int, two_n: int) -> str:
    for q in factorize_td(m):
        if two_n % q == 0:
            return "B"
    return "A"


def split_td(two_n: int) -> tuple[list[int], list[int]]:
    """A/B split of the odd primes strictly inside (1, 2N-1)."""
    a, b = [], []
    for q in range(3, two_n - 1, 2):
        if is_prime_td(q):
            (b if two_n % q == 0 else a).append(q)
    return a, b


def partitions_td(two_n: int) -> list[tuple[int, int]]:
    return [(a, two_n - a) for a in range(3, two_n // 2 + 1, 2)]


def census_td(two_n: int, prime=None) -> dict:
    """Partition census by direct loop; pass a primality callable to speed up."""
    if prime is None:
        prime = is_prime_td
    a_count = b_count = mixed = 0
    pairs = []
    for a, b in partitions_td(two_n):
        ka = number_class_gcd(a, two_n)
        kb = number_class_gcd(b, two_n)
        if ka == kb == "A":
            a_count += 1
        elif ka == kb == "B":
            b_count += 1
        else:
            mixed += 1
        if prime(a) and prime(b):
            pairs.append((a, b))
    return {
        "total": a_count + b_count + mixed,
        "a_count": a_count,
        "b_count": b_count,
        "mixed": mixed,
        "pairs": pairs,
    }


def b_type_goldbach_pairs_td(two_n: int, prime=None) -> list[tuple[int, int]]:
    if prime is None:
        prime = is_prime_td
    return [
        (p, q)
        for p, q in census_td(two_n, prime)["pairs"]
        if number_class_gcd(p, two_n) == "B" and number_class_gcd(q, two_n) == "B"
    ]


def midpoints_td(two_n: int) -> tuple[int, int]:
    n = two_n // 2
    return (n - 1, n + 1) if n % 2 == 0 else (n - 2, n + 2)


def doctored_same_type_td(two_n: int, listed) -> tuple[list[int], int]:
    """(smallest mixed partition or [], mixed count) of 2N when ``listed`` are
    taken as its odd prime factors: an odd m is B-type iff it shares a factor
    with their product."""
    rad = math.prod(listed)
    mixed = [a for a, b in partitions_td(two_n)
             if (math.gcd(a, rad) == 1) != (math.gcd(b, rad) == 1)]
    return ([mixed[0], two_n - mixed[0]] if mixed else []), len(mixed)


def doctored_companion_fail_td(two_n: int, listed, prime=None) -> dict | None:
    """First failure of the companion checks when ``listed`` are taken as the
    odd prime factors of 2N: the smallest A-prime whose companion shares a
    listed factor, else the smallest listed prime that does not divide 2N."""
    if prime is None:
        prime = is_prime_td
    rad = math.prod(listed)
    for p in range(3, two_n - 2, 2):
        if prime(p) and math.gcd(p, rad) == 1 and math.gcd(two_n - p, rad) != 1:
            return {"two_n": two_n, "p": p, "companion": two_n - p,
                    "reason": "companion is B-type"}
    for q in sorted(listed):
        if two_n % q:
            return {"two_n": two_n, "q": q,
                    "reason": "factor route missed an odd prime factor"}
    return None
