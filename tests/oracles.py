"""Naive reference implementations used as oracles.

Everything here sticks to trial division, direct enumeration and gcd, and
shares no code with the package's sieve/mask machinery, so agreement between
the two is meaningful.
"""

import math
from bisect import bisect_right


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


# ---------------------------------------------------------------------------
# Scalar chunk evaluators: one even target per iteration.  They read the same
# table (and, for s_bound, the same factor lists) as the range kernels, and
# return the same partial dicts.
# ---------------------------------------------------------------------------


def s_bound_chunk(c_lo, c_hi, facs, table) -> dict:
    bits = table.odd_bits
    pi = bits[1 : (c_lo - 2) >> 1].count(1)  # odd primes <= c_lo - 3
    checked = 0
    fail = None
    boundary = []
    min_s = None
    max_s = None
    for i in range(len(facs)):
        two_n = c_lo + 2 * i
        if i:
            pi += bits[(two_n - 3) >> 1]
        s = pi - len(facs[i])
        if two_n == 6:
            boundary.append({"two_n": 6, "s": s})
            continue
        checked += 1
        if s < 2 and fail is None:
            fail = {"two_n": two_n, "s": s}
        if min_s is None or s < min_s[0]:
            min_s = [s, two_n]
        if max_s is None or s > max_s[0]:
            max_s = [s, two_n]
    return {"checked": checked, "fail": fail, "boundary": boundary,
            "min_s": min_s, "max_s": max_s}


def pair_scan_chunk(c_lo, c_hi, table, want_pairing, want_witness) -> dict:
    """Smallest-prime Goldbach scan shared by the witness and pairing claims."""
    bits = table.odd_bits
    odd_primes = table.prime_list
    nprimes = len(odd_primes)
    witness_fail = None
    pairing_fail = None
    pairing_boundary = []
    a_pair_evens = 0
    b_self_evens = 0
    checked = 0
    max_min_p = None
    for two_n in range(c_lo, c_hi + 1, 2):
        n = two_n >> 1
        found = 0
        j = 1
        while j < nprimes:
            p = odd_primes[j]
            if p > n:
                break
            if bits[(two_n - p) >> 1]:
                found = p
                break
            j += 1
        checked += 1
        if not found:
            detail = {"two_n": two_n, "count": 0}
            if witness_fail is None:
                witness_fail = detail
            if pairing_fail is None and two_n != 6:
                pairing_fail = detail
            continue
        if max_min_p is None or found > max_min_p[0]:
            max_min_p = [found, two_n]
        if two_n % found == 0:
            if found != n and witness_fail is None:
                witness_fail = {"two_n": two_n, "p": found,
                                "reason": "divisible partner reported prime"}
            b_self_evens += 1
        else:
            a_pair_evens += 1
        if two_n == 6:
            pairing_boundary.append({"two_n": 6, "pair": [found, two_n - found]})
    out = {"checked": checked}
    if want_witness:
        out["witness"] = {"checked": checked, "fail": witness_fail, "boundary": [],
                          "a_pair_evens": a_pair_evens,
                          "b_self_evens": b_self_evens,
                          "max_min_p": max_min_p}
    if want_pairing:
        out["pairing"] = {"checked": checked - len(pairing_boundary),
                          "fail": pairing_fail, "boundary": pairing_boundary,
                          "a_pair_evens": a_pair_evens,
                          "b_self_evens": b_self_evens}
    return out


def midpoint_coprime_chunk(c_lo, c_hi, table) -> dict:
    first = max(c_lo, 8)
    fail = None
    for two_n in range(first, c_hi + 1, 2):
        v1, v2 = midpoints_td(two_n)
        g1 = math.gcd(v1, two_n)
        g2 = math.gcd(v2, two_n)
        if g1 != 1 or g2 != 1:
            fail = {"two_n": two_n, "values": [v1, v2], "gcds": [g1, g2]}
            break
    return {"checked": (c_hi - first) // 2 + 1, "fail": fail,
            "boundary": [{"two_n": 6}] if c_lo == 6 else []}


def prime_power_chunk(c_lo, c_hi, table) -> dict:
    """Every 2N = p + p**k identity in the chunk, checked for p | 2N."""
    bits = table.odd_bits
    checked = 0
    inspected = 0
    fail = None
    boundary = []
    for two_n in range(c_lo, c_hi + 1, 2):
        if two_n == 6:
            boundary.append({"two_n": 6})
            continue
        checked += 1
        n = two_n >> 1
        if n % 2 == 1 and bits[n >> 1]:  # k = 1 solution: 2N = n + n
            inspected += 1
            if two_n % n != 0 and fail is None:
                fail = {"two_n": two_n, "p": n, "k": 1}
    root = math.isqrt(c_hi)
    for p in table.prime_list[1 : bisect_right(table.prime_list, root)]:
        v = p * p
        while p + v <= c_hi:
            two_n = p + v
            if two_n >= c_lo and two_n != 6:
                inspected += 1
                if two_n % p != 0 and fail is None:
                    fail = {"two_n": two_n, "p": p, "power": v}
            v *= p
    return {"checked": checked, "fail": fail, "boundary": boundary,
            "identities_inspected": inspected}


def doctored_pair_scan_fails_td(lo: int, hi: int, prime) -> tuple:
    """(witness, pairing) counterexamples over [lo, hi] when ``prime(m)`` says
    which partners 2N - p are prime: the smallest target without a partner,
    or, for the witness claim only, one whose smallest partner prime p divides
    2N - p with p < N."""
    witness = pairing = None
    for two_n in range(lo, hi + 1, 2):
        n = two_n // 2
        p = next((p for p in range(3, n + 1, 2)
                  if is_prime_td(p) and prime(two_n - p)), None)
        if p is None:
            detail = {"two_n": two_n, "count": 0}
            witness = witness or detail
            if two_n != 6:
                pairing = pairing or detail
        elif two_n % p == 0 and p != n:
            witness = witness or {"two_n": two_n, "p": p,
                                  "reason": "divisible partner reported prime"}
    return witness, pairing
