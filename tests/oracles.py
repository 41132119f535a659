"""Naive reference implementations used as oracles.

Everything here sticks to trial division, direct enumeration and gcd, and
shares no code with the package's sieve/mask machinery, so agreement between
the two is meaningful.
"""

import math
from bisect import bisect_right

from goldbach_ab import (
    CompanionRecord,
    CounterexampleFound,
    NotAPureAProduct,
    NumberClass,
    decompose_over_a_basis,
)


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


def classify_odd_by_factors(m: int, t, table):
    """``number_class_factors`` as the package's ``NumberClass``."""
    return NumberClass(number_class_factors(m, t.two_n))


def brute_force_goldbach_count(t, table) -> int:
    """r(2N): test a and 2N - a for primality, odd a in [3, N]."""
    count = 0
    for a in range(3, t.n + 1, 2):
        if table.odd_bits[a >> 1] and table.odd_bits[(t.two_n - a) >> 1]:
            count += 1
    return count


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


def midpoints_td(two_n: int) -> tuple[int, int]:
    n = two_n // 2
    return (n - 1, n + 1) if n % 2 == 0 else (n - 2, n + 2)


def companions_td(t, split, table) -> list:
    """``companions`` one companion at a time: each is trial-divided over the
    A-basis by ``decompose_over_a_basis``."""
    records = []
    for idx, p in enumerate(split.a_primes):
        c = t.two_n - p
        try:
            exps = decompose_over_a_basis(c, split, table)
        except NotAPureAProduct as exc:
            q = exc.offending_prime
            raise CounterexampleFound(
                f"factor {q} of companion {c} of A-prime {p} not marked prime",
                {"two_n": t.two_n, "p": p, "companion": c, "factor": q,
                 "reason": "factor not marked prime"},
            ) from exc
        if exps.exponent_at(idx) != 0:
            raise CounterexampleFound(
                f"companion {c} of {p} is divisible by {p}",
                {"two_n": t.two_n, "p": p, "companion": c},
            )
        records.append(CompanionRecord(p=p, companion=c,
                                       companion_is_prime=bool(table.odd_bits[c >> 1]),
                                       exps=exps))
    return records


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
    odd prime factors of 2N, None when 2N has no A-prime: the smallest A-prime
    whose companion shares a listed factor, else the smallest listed prime
    that does not divide 2N, else the smallest A-prime p dividing 2N - p."""
    if prime is None:
        prime = is_prime_td
    rad = math.prod(listed)
    a_primes = [p for p in range(3, two_n - 2, 2)
                if prime(p) and math.gcd(p, rad) == 1]
    if not a_primes:
        return None
    for p in a_primes:
        if math.gcd(two_n - p, rad) != 1:
            return {"two_n": two_n, "p": p, "companion": two_n - p,
                    "reason": "companion is B-type"}
    for q in sorted(listed):
        if two_n % q:
            return {"two_n": two_n, "q": q,
                    "reason": "factor route missed an odd prime factor"}
    for p in a_primes:
        if (two_n - p) % p == 0:
            return {"two_n": two_n, "p": p, "companion": two_n - p,
                    "reason": "companion divisible by its own prime"}
    return None


def comet_row_td(two_n: int, prime) -> tuple[int, int, int, int, int]:
    """(two_n, r, s, a_count, b_count) when ``prime(m)`` says which odds are
    prime: r counts the marked pairs, s the marked odds in [3, 2N - 3] less
    the odd prime factors of 2N, and the counts classify by gcd."""
    cen = census_td(two_n, prime)
    marked = sum(1 for m in range(3, two_n - 2, 2) if prime(m))
    omega = sum(1 for q in factorize_td(two_n) if q != 2)
    return (two_n, len(cen["pairs"]), marked - omega, cen["a_count"],
            cen["b_count"])


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


def midpoint_decomposes_chunk(c_lo, c_hi, halo, table) -> dict:
    """Both flankers of every target from 8 on, ``halo`` listing the odd prime
    factors of the evens in [c_lo - 4, c_hi + 4]: a flanker the table marks
    prime is its own A-prime, any other fails on a listed prime dividing 2N."""
    bits = table.odd_bits
    first = max(c_lo, 8)
    both_prime = 0
    fail = None
    for two_n in range(first, c_hi + 1, 2):
        flankers = midpoints_td(two_n)
        both_prime += all(bits[v >> 1] for v in flankers)
        for v in flankers:
            shared = [q for q in halo[(2 * v - c_lo + 4) // 2] if two_n % q == 0]
            if fail is None and shared and not bits[v >> 1]:
                fail = {"two_n": two_n, "value": v, "shared_prime": min(shared)}
    return {"checked": (c_hi - first) // 2 + 1, "fail": fail,
            "boundary": [{"two_n": 6}] if c_lo == 6 else [],
            "both_prime_pairs": both_prime}


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
    for p in table.small_primes[1 : bisect_right(table.small_primes, root)]:
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
    which odds are prime, the primes p and their partners 2N - p alike: the
    smallest target without a partner,
    or, for the witness claim only, one whose smallest partner prime p divides
    2N - p with p < N."""
    witness = pairing = None
    for two_n in range(lo, hi + 1, 2):
        n = two_n // 2
        p = next((p for p in range(3, n + 1, 2)
                  if prime(p) and prime(two_n - p)), None)
        if p is None:
            detail = {"two_n": two_n, "count": 0}
            witness = witness or detail
            if two_n != 6:
                pairing = pairing or detail
        elif two_n % p == 0 and p != n:
            witness = witness or {"two_n": two_n, "p": p,
                                  "reason": "divisible partner reported prime"}
    return witness, pairing


# ---------------------------------------------------------------------------
# Bit-window chunk evaluators: the windows of ``classify`` for every target of
# a chunk at one bit per odd, compared target by target.  The range
# same-type, companion and comet routes are pinned to these.
# ---------------------------------------------------------------------------

# Mark patterns of the primes below this bound are kept for a whole chunk;
# they are the factors most targets share.
_MARKS_CACHE_BELOW = 32

_ASCII_BITS = bytes.maketrans(b"\x00\x01", b"01")


def _low_bit(x: int) -> int:
    return (x & -x).bit_length() - 1


def _stride(start: int, step: int, width: int) -> int:
    """Bits start + m * step for every m * step below ``width`` (and up to
    ``width`` bits beyond)."""
    v, span = 1 << start, step
    while span < width:
        v |= v << span
        span <<= 1
    return v


class BitWindows:
    """The windows of ``classify`` for the evens of one chunk, one bit per odd.

    For a target 2N with k = N - 2, bit j stands for the odd value 3 + 2j.
    Each method returns a window and its reversal over all k bits, both cut
    to ``mask``, the low ``width <= k`` bits.
    """

    def __init__(self, table, c_hi: int):
        self.k_max = (c_hi >> 1) - 2
        # fwd has bit j for 3 + 2j, rev has them all in reverse order.
        text = table.odd_bits[: self.k_max + 1].translate(_ASCII_BITS)
        self.fwd = int(text[:0:-1], 2)
        self.rev = int(text, 2)
        self.marks: dict[int, int] = {}

    def primes(self, k: int, mask: int) -> tuple[int, int]:
        """The prime window, ``table.odds(3, 2N - 3)``, and its reversal."""
        return self.fwd & mask, (self.rev >> (self.k_max - k)) & mask

    def btype(self, k: int, qs, mask: int) -> tuple[int, int]:
        """``btype_bytes(k, qs)`` and its reversal.

        q marks j0 + mq with j0 = (q - 3) / 2 < q, so the reversal marks the
        residue class of r = (k - 1 - j0) mod q, none of which lies above
        k - 1 - j0: the same marks shifted by r - j0.
        """
        b = rb = 0
        for q in qs:
            j0 = (q - 3) >> 1
            if j0 < k:
                v = self._marks(q, mask)
                b |= v
                r = (k - 1 - j0) % q
                rb |= v << (r - j0) if r >= j0 else v >> (j0 - r)
        return b & mask, rb & mask

    def _marks(self, q: int, mask: int) -> int:
        """Bits j0 + mq, m >= 0, for every mq below the width of ``mask``."""
        v = self.marks.get(q)
        if v is None:
            j0 = (q - 3) >> 1
            cached = q < _MARKS_CACHE_BELOW
            n = self.k_max if cached else mask.bit_length()
            v = _stride(j0, q, n)
            if cached:  # doubling overshoots by up to n bits
                self.marks[q] = v = v & ((1 << (j0 + n)) - 1)
        return v


def same_type_chunk(c_lo, c_hi, facs, table) -> dict:
    """A partition is mixed where the B-type window and its reversal differ."""
    win = BitWindows(table, c_hi)
    mixed_total = 0
    fail = None
    for i, qs in enumerate(facs):
        two_n = c_lo + 2 * i
        b, rb = win.btype((two_n >> 1) - 2, qs, (1 << ((two_n - 6) // 4 + 1)) - 1)
        x = b ^ rb
        if x:
            mixed_total += x.bit_count()
            if fail is None:
                a = 3 + 2 * _low_bit(x)
                fail = {"two_n": two_n, "partition": [a, two_n - a]}
    return {"checked": len(facs), "mixed_total": mixed_total, "fail": fail,
            "boundary": []}


def companions_chunk(c_lo, c_hi, facs, table) -> dict:
    """Every target's A-primes (unmarked primes of its window) are counted;
    the first target to break a check, in this order, fails: (1) an A-prime's
    companion is marked B-type, (2) a listed factor does not divide 2N,
    (3) an A-prime divides its companion, the smallest such one reported: it
    is an odd divisor of 2N, so only those are tried."""
    win = BitWindows(table, c_hi)
    checked = 0
    a_total = 0
    fail = None
    boundary = []
    for i, qs in enumerate(facs):
        two_n = c_lo + 2 * i
        if two_n == 6:
            boundary.append({"two_n": 6})
            continue
        checked += 1
        k = (two_n >> 1) - 2
        mask = (1 << k) - 1
        b, rb = win.btype(k, qs, mask)
        a = win.fwd & (b ^ mask)
        a_total += a.bit_count()
        if a == 0 or fail is not None:
            continue
        viol = a & rb
        if viol:
            p = 3 + 2 * _low_bit(viol)
            fail = {"two_n": two_n, "p": p, "companion": two_n - p,
                    "reason": "companion is B-type"}
            continue
        for q in qs:
            if two_n % q:
                fail = {"two_n": two_n, "q": q,
                        "reason": "factor route missed an odd prime factor"}
                break
        if fail is not None:
            continue
        divisors = {d for k in range(1, math.isqrt(two_n) + 1) if two_n % k == 0
                    for d in (k, two_n // k) if d % 2}
        for p in sorted(divisors - {1}):
            if a >> ((p - 3) >> 1) & 1:
                fail = {"two_n": two_n, "p": p, "companion": two_n - p,
                        "reason": "companion divisible by its own prime"}
                break
    return {"checked": checked, "fail": fail, "boundary": boundary,
            "a_primes_checked": a_total}


def comet_chunk(c_lo, c_hi, pi, facs, table) -> list:
    """Rows (two_n, r, s, a_count, b_count), pi = pi(c_lo - 3) carried in;
    the counts are those of ``census`` on the bit windows."""
    bits = table.odd_bits
    win = BitWindows(table, c_hi)
    rows = []
    for i, qs in enumerate(facs):
        two_n = c_lo + 2 * i
        if i:
            pi += bits[(two_n - 3) >> 1]
        k = (two_n >> 1) - 2
        h = (two_n - 6) // 4 + 1
        mask = (1 << h) - 1
        b, rb = win.btype(k, qs, mask)
        pf, pr = win.primes(k, mask)
        rows.append((two_n, (pf & pr).bit_count(), pi - len(qs),
                     h - (b | rb).bit_count(), (b & rb).bit_count()))
    return rows


# ---------------------------------------------------------------------------
# Doctored factor lists
# ---------------------------------------------------------------------------


def patch_factor_lists(monkeypatch, lists) -> None:
    """Make every range run read its chunks' factor inputs off
    ``lists(c_lo, c_hi, source)``, factor lists a test doctors, typically an
    edit of ``claims._odd_factor_lists``: the fused chunk sieve returns the
    record built from them.  ``monkeypatch`` is pytest's, or a
    ``pytest.MonkeyPatch.context()``; pool workers inherit the patch under
    fork."""
    import goldbach_ab.claims as claims_mod

    def listed(lo, hi, source):
        return claims_mod._Factors(lo, hi, lists(lo, hi, source))

    monkeypatch.setattr(claims_mod, "_factor_sieve", listed)
