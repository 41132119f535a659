"""One verifier per structural claim about an even target, plus range runs.

Single-target verifiers follow the definitions literally (enumerate the
A-primes, factor every companion, and so on).  Range verification re-derives
the same verdicts from window arithmetic that is feasible for millions of
targets: striding byte masks, a running prime count, and a per-chunk
distinct-factor sieve that also factors the midpoint flankers, so no range
route trial-divides.  The test suite pins the two routes together.

Range runs are split into fixed-size chunks of consecutive even numbers.
Chunk boundaries never depend on the worker count and results are merged in
ascending order, so output is identical for any number of workers.
"""

from __future__ import annotations

import math
import multiprocessing
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from itertools import compress
from operator import and_

from .classify import (
    EvenTarget,
    PrimeSplit,
    btype_bytes,
    prime_window,
    split_primes,
)
from .errors import CounterexampleFound, NotAPureAProduct, UsageError
from .partition import (
    census,
    census_from_windows,
    first_mixed_partition,
    goldbach_pairs_from_window,
    kind_of_prime_pair,
    partition_total,
    self_pair,
)
from .sieve import PrimeTable, build_table, factorize

# Evens per work chunk; fixed so range output cannot depend on worker count.
DEFAULT_CHUNK_EVENS = 8192

PASS = "pass"
FAIL = "fail"
BOUNDARY = "boundary"


class ClaimId(Enum):
    SAME_TYPE_LEMMA = "same_type_lemma"
    S_BOUND = "s_bound"
    PRIME_POWER_EXCLUSION = "prime_power_exclusion"
    MIDPOINT_COPRIME = "midpoint_coprime"
    MIDPOINT_DECOMPOSES = "midpoint_decomposes"
    PAIRING_NON_EMPTY = "pairing_non_empty"
    GOLDBACH_WITNESS = "goldbach_witness"
    COMPANION_DECOMPOSES = "companion_decomposes"


ALL_CLAIMS = tuple(ClaimId)


@dataclass(frozen=True)
class ClaimOutcome:
    """Verdict for one claim over one target (lo == hi) or an even range."""

    claim_id: ClaimId
    lo: int
    hi: int
    status: str
    payload: dict

    @property
    def single(self) -> bool:
        return self.lo == self.hi

    @property
    def ok(self) -> bool:
        """Boundary counts as non-failing."""
        return self.status != FAIL

    def as_dict(self) -> dict:
        return {
            "claim": self.claim_id.value,
            "lo": self.lo,
            "hi": self.hi,
            "status": self.status,
            "payload": self.payload,
        }


# ---------------------------------------------------------------------------
# Exponent vectors over the A-prime basis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExponentVector:
    """Factorization of an odd number expressed over the A-prime basis.

    Stored sparsely as (basis index, exponent) pairs; the dense ``exps``
    list (same length as the basis, zeros included) is materialized on
    demand because the basis can hold thousands of primes.
    """

    basis: tuple[int, ...]
    nonzero: tuple[tuple[int, int], ...]

    @property
    def exps(self) -> list[int]:
        dense = [0] * len(self.basis)
        for i, e in self.nonzero:
            dense[i] = e
        return dense

    def exponent_at(self, index: int) -> int:
        for i, e in self.nonzero:
            if i == index:
                return e
        return 0

    def value(self) -> int:
        out = 1
        for i, e in self.nonzero:
            out *= self.basis[i] ** e
        return out

    def as_prime_dict(self) -> dict[int, int]:
        return {self.basis[i]: e for i, e in self.nonzero}


def decompose_over_a_basis(
    m: int, split: PrimeSplit, table: PrimeTable
) -> ExponentVector:
    """Write odd m (3 <= m < 2N-1) as a product of A-primes of 2N.

    Raises NotAPureAProduct when some prime factor of m divides 2N, which is
    exactly the B-type case.
    """
    if m % 2 == 0 or m < 3 or m >= split.two_n - 1:
        raise UsageError(f"{m} is not an odd number in [3, {split.two_n - 3}]")
    nonzero = []
    for q, e in factorize(m, table):
        i = bisect_left(split.a_primes, q)
        if i == len(split.a_primes) or split.a_primes[i] != q:
            raise NotAPureAProduct(m, q)
        nonzero.append((i, e))
    return ExponentVector(basis=split.a_primes, nonzero=tuple(nonzero))


# ---------------------------------------------------------------------------
# Companions of A-primes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompanionRecord:
    """One A-prime p with its companion 2N - p and that companion's shape."""

    p: int
    companion: int
    companion_is_prime: bool
    exps: ExponentVector


def companions(
    t: EvenTarget, split: PrimeSplit, table: PrimeTable
) -> list[CompanionRecord]:
    """Companion record for every A-prime; empty when there are none.

    Each record is verified on construction: the companion must be A-type
    (so it decomposes over the A-basis) and must not be divisible by its own
    prime.  A breach raises CounterexampleFound with the witness attached.
    """
    records = []
    for idx, p in enumerate(split.a_primes):
        c = t.two_n - p
        try:
            exps = decompose_over_a_basis(c, split, table)
        except NotAPureAProduct as exc:
            raise CounterexampleFound(
                f"companion {c} of A-prime {p} is not A-type",
                {"two_n": t.two_n, "p": p, "companion": c,
                 "shared_prime": exc.offending_prime},
            ) from exc
        if exps.exponent_at(idx) != 0:
            raise CounterexampleFound(
                f"companion {c} of {p} is divisible by {p}",
                {"two_n": t.two_n, "p": p, "companion": c},
            )
        records.append(
            CompanionRecord(
                p=p,
                companion=c,
                companion_is_prime=bool(table.odd_bits[c >> 1]),
                exps=exps,
            )
        )
    return records


# ---------------------------------------------------------------------------
# Pairing and midpoint reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairingReport:
    """A-prime Goldbach pairs of 2N plus the A-primes left without a partner."""

    pairs: tuple[tuple[int, int], ...]
    unpaired: tuple[int, ...]


def pairing_report(t: EvenTarget, split: PrimeSplit, table: PrimeTable) -> PairingReport:
    """Pair up A-primes whose companions are prime; list the rest as unpaired.

    Every A-prime lands in exactly one pair or in unpaired; a self pair is
    impossible because an A-prime cannot divide 2N.
    """
    pairs = []
    unpaired = []
    covered = 0
    for p in split.a_primes:
        c = t.two_n - p
        if table.odd_bits[c >> 1]:
            if c == p:
                raise CounterexampleFound(
                    f"A-prime {p} formed a self pair of {t.two_n}",
                    {"two_n": t.two_n, "p": p},
                )
            if math.gcd(c, t.two_n) != 1:
                raise CounterexampleFound(
                    f"prime companion {c} of A-prime {p} shares a factor with "
                    f"{t.two_n}",
                    {"two_n": t.two_n, "p": p, "companion": c},
                )
            covered += 1
            if p < c:
                pairs.append((p, c))
        else:
            unpaired.append(p)
    if covered != 2 * len(pairs) or covered + len(unpaired) != split.s:
        raise CounterexampleFound(
            f"pairing of {t.two_n} does not cover the A-primes exactly once",
            {"two_n": t.two_n, "pairs": pairs, "unpaired": unpaired},
        )
    return PairingReport(pairs=tuple(pairs), unpaired=tuple(unpaired))


@dataclass(frozen=True)
class MidpointValue:
    value: int
    is_prime: bool
    # None when the value failed to decompose over the A-basis, which the
    # claim layer reports as a counterexample.
    exps: ExponentVector | None


@dataclass(frozen=True)
class MidpointReport:
    """The two odd numbers flanking N: N-1/N+1 for even N, N-2/N+2 for odd N.

    ``both_prime_pair`` holds the (lo, hi) Goldbach pair formed by the two
    values whenever both are prime; they always sum to 2N.
    """

    parity: str  # parity of N: "even" | "odd"
    values: tuple[MidpointValue, MidpointValue]
    both_prime_pair: tuple[int, int] | None


def midpoint_values(two_n: int) -> tuple[int, int]:
    n = two_n // 2
    if n % 2 == 0:
        return n - 1, n + 1
    return n - 2, n + 2


def midpoint_report(
    t: EvenTarget, split: PrimeSplit, table: PrimeTable
) -> MidpointReport:
    """Inspect the midpoint flankers of 2N (requires 2N >= 8)."""
    if t.two_n < 8:
        raise UsageError(f"midpoints are defined for 2N >= 8, got {t.two_n}")
    v1, v2 = midpoint_values(t.two_n)
    vals = []
    for v in (v1, v2):
        try:
            exps = decompose_over_a_basis(v, split, table)
        except NotAPureAProduct:
            exps = None
        vals.append(
            MidpointValue(value=v, is_prime=bool(table.odd_bits[v >> 1]), exps=exps)
        )
    pair = None
    if vals[0].is_prime and vals[1].is_prime:
        if v1 + v2 != t.two_n:
            raise CounterexampleFound(
                f"midpoint flankers of {t.two_n} do not sum back",
                {"two_n": t.two_n, "values": [v1, v2]},
            )
        pair = (v1, v2)
    return MidpointReport(
        parity="even" if t.n % 2 == 0 else "odd",
        values=(vals[0], vals[1]),
        both_prime_pair=pair,
    )


# ---------------------------------------------------------------------------
# Single-target claim verdicts
# ---------------------------------------------------------------------------


def _single(claim_id: ClaimId, two_n: int, status: str, payload: dict) -> ClaimOutcome:
    return ClaimOutcome(claim_id=claim_id, lo=two_n, hi=two_n, status=status,
                        payload=payload)


def verify_same_type_lemma(t: EvenTarget, table: PrimeTable) -> ClaimOutcome:
    """Pass iff no odd partition of 2N mixes an A-type with a B-type component."""
    c = census(t, table)
    if c.mixed_count == 0:
        payload = {"total": c.total, "a_count": c.a_count, "b_count": c.b_count}
        return _single(ClaimId.SAME_TYPE_LEMMA, t.two_n, PASS, payload)
    witness = first_mixed_partition(t, table)
    return _single(
        ClaimId.SAME_TYPE_LEMMA,
        t.two_n,
        FAIL,
        {"two_n": t.two_n, "mixed_count": c.mixed_count, "partition": witness},
    )


def verify_s_bounds(t: EvenTarget, split: PrimeSplit) -> ClaimOutcome:
    """Pass iff at least two A-primes exist (targets above the 6 boundary)."""
    if t.two_n == 6:
        return _single(ClaimId.S_BOUND, 6, BOUNDARY, {"two_n": 6, "s": split.s})
    status = PASS if split.s >= 2 else FAIL
    return _single(ClaimId.S_BOUND, t.two_n, status, {"two_n": t.two_n, "s": split.s})


def prime_power_exclusion(
    t: EvenTarget, split: PrimeSplit, table: PrimeTable
) -> ClaimOutcome:
    """Pass iff no A-prime p has p dividing 2N - p (no 2N = p + p**k solution)."""
    if t.two_n == 6:
        return _single(ClaimId.PRIME_POWER_EXCLUSION, 6, BOUNDARY, {"two_n": 6})
    for p in split.a_primes:
        if (t.two_n - p) % p == 0:
            return _single(
                ClaimId.PRIME_POWER_EXCLUSION,
                t.two_n,
                FAIL,
                {"two_n": t.two_n, "p": p, "companion": t.two_n - p},
            )
    return _single(
        ClaimId.PRIME_POWER_EXCLUSION,
        t.two_n,
        PASS,
        {"two_n": t.two_n, "a_primes_checked": split.s},
    )


def claim_pairing_non_empty(
    t: EvenTarget, split: PrimeSplit, table: PrimeTable
) -> ClaimOutcome:
    """Pass iff some A-prime pair exists, or the self pair (N, N) covers 2N."""
    report = pairing_report(t, split, table)
    bself = self_pair(t, table)
    payload = {
        "pairs": list(report.pairs),
        "unpaired_count": len(report.unpaired),
        "b_self_pair": list(bself) if bself else None,
    }
    if t.two_n == 6:
        return _single(ClaimId.PAIRING_NON_EMPTY, 6, BOUNDARY, payload)
    status = PASS if report.pairs or bself else FAIL
    if status == FAIL:
        payload = {"two_n": t.two_n, **payload}
    return _single(ClaimId.PAIRING_NON_EMPTY, t.two_n, status, payload)


def claim_goldbach_witness(t: EvenTarget, table: PrimeTable) -> ClaimOutcome:
    """Pass iff 2N has at least one prime-prime partition."""
    pwin = prime_window(t, table)
    pairs = goldbach_pairs_from_window(t.two_n, pwin)
    if pairs:
        p, q = pairs[0]
        payload = {
            "count": len(pairs),
            "smallest_pair": [p, q],
            "kind": kind_of_prime_pair(p, q, t.two_n).value,
        }
        return _single(ClaimId.GOLDBACH_WITNESS, t.two_n, PASS, payload)
    return _single(
        ClaimId.GOLDBACH_WITNESS, t.two_n, FAIL, {"two_n": t.two_n, "count": 0}
    )


def claim_midpoint_outcomes(
    t: EvenTarget, split: PrimeSplit, table: PrimeTable
) -> tuple[ClaimOutcome, ClaimOutcome]:
    """(coprime, decomposes) verdicts from one midpoint inspection."""
    if t.two_n == 6:
        payload = {"two_n": 6}
        return (
            _single(ClaimId.MIDPOINT_COPRIME, 6, BOUNDARY, payload),
            _single(ClaimId.MIDPOINT_DECOMPOSES, 6, BOUNDARY, payload),
        )
    report = midpoint_report(t, split, table)
    values = [v.value for v in report.values]
    gcds = [math.gcd(v, t.two_n) for v in values]
    if all(g == 1 for g in gcds):
        cop = _single(
            ClaimId.MIDPOINT_COPRIME, t.two_n, PASS,
            {"parity": report.parity, "values": values},
        )
    else:
        cop = _single(
            ClaimId.MIDPOINT_COPRIME, t.two_n, FAIL,
            {"two_n": t.two_n, "values": values, "gcds": gcds},
        )
    bad = [v.value for v in report.values if v.exps is None]
    if bad:
        dec = _single(
            ClaimId.MIDPOINT_DECOMPOSES, t.two_n, FAIL,
            {"two_n": t.two_n, "not_decomposable": bad},
        )
    else:
        dec = _single(
            ClaimId.MIDPOINT_DECOMPOSES, t.two_n, PASS,
            {
                "parity": report.parity,
                "values": values,
                "both_prime_pair": list(report.both_prime_pair)
                if report.both_prime_pair
                else None,
            },
        )
    return cop, dec


def claim_companion_decomposes(
    t: EvenTarget, split: PrimeSplit, table: PrimeTable
) -> ClaimOutcome:
    """Pass iff every A-prime companion decomposes over the A-basis.

    Builds the full companion records, so cost grows with the number of
    A-primes; range runs use the window evaluator instead.
    """
    if t.two_n == 6:
        return _single(ClaimId.COMPANION_DECOMPOSES, 6, BOUNDARY, {"two_n": 6})
    try:
        records = companions(t, split, table)
    except CounterexampleFound as exc:
        return _single(ClaimId.COMPANION_DECOMPOSES, t.two_n, FAIL, exc.witness)
    prime_companions = sum(1 for r in records if r.companion_is_prime)
    return _single(
        ClaimId.COMPANION_DECOMPOSES,
        t.two_n,
        PASS,
        {"a_primes": len(records), "prime_companions": prime_companions},
    )


def evaluate_claims(
    t: EvenTarget,
    table: PrimeTable,
    claim_ids: tuple[ClaimId, ...] = ALL_CLAIMS,
) -> list[ClaimOutcome]:
    """All requested claim verdicts for a single target, in declaration order."""
    selected = [c for c in ALL_CLAIMS if c in set(claim_ids)]
    needs_split = set(selected) - {ClaimId.SAME_TYPE_LEMMA, ClaimId.GOLDBACH_WITNESS}
    split = split_primes(t, table) if needs_split else None
    midpoints = None
    outcomes = []
    for cid in selected:
        if cid is ClaimId.SAME_TYPE_LEMMA:
            outcomes.append(verify_same_type_lemma(t, table))
        elif cid is ClaimId.S_BOUND:
            outcomes.append(verify_s_bounds(t, split))
        elif cid is ClaimId.PRIME_POWER_EXCLUSION:
            outcomes.append(prime_power_exclusion(t, split, table))
        elif cid in (ClaimId.MIDPOINT_COPRIME, ClaimId.MIDPOINT_DECOMPOSES):
            if midpoints is None:
                midpoints = claim_midpoint_outcomes(t, split, table)
            outcomes.append(
                midpoints[0] if cid is ClaimId.MIDPOINT_COPRIME else midpoints[1]
            )
        elif cid is ClaimId.PAIRING_NON_EMPTY:
            outcomes.append(claim_pairing_non_empty(t, split, table))
        elif cid is ClaimId.GOLDBACH_WITNESS:
            outcomes.append(claim_goldbach_witness(t, table))
        elif cid is ClaimId.COMPANION_DECOMPOSES:
            outcomes.append(claim_companion_decomposes(t, split, table))
    return outcomes


# ---------------------------------------------------------------------------
# Range verification: chunk evaluators
# ---------------------------------------------------------------------------


def _pi_odd_upto(x: int, table: PrimeTable) -> int:
    """Count of odd primes <= x."""
    if x < 3:
        return 0
    return table.odd_bits[1 : (x + 1) >> 1].count(1)


def _odd_factor_lists(c_lo: int, c_hi: int, table: PrimeTable) -> list[list[int]]:
    """Distinct odd prime factors of every even number in [c_lo, c_hi].

    Sieve-style: stride over the even multiples of each odd prime up to
    sqrt(c_hi), dividing cofactors down; whatever survives above 1 is a
    single prime factor larger than the root.
    """
    nev = (c_hi - c_lo) // 2 + 1
    cof = [0] * nev
    for i in range(nev):
        v = c_lo + 2 * i
        while v % 2 == 0:
            v //= 2
        cof[i] = v
    facs: list[list[int]] = [[] for _ in range(nev)]
    root = math.isqrt(c_hi)
    for p in table.prime_list[1 : bisect_right(table.prime_list, root)]:
        q = 2 * p
        first = ((c_lo + q - 1) // q) * q
        for m in range(first, c_hi + 1, q):
            i = (m - c_lo) >> 1
            facs[i].append(p)
            v = cof[i] // p
            while v % p == 0:
                v //= p
            cof[i] = v
    for i in range(nev):
        if cof[i] > 1:
            facs[i].append(cof[i])
    return facs


def _chunk_same_type(c_lo, c_hi, facs, table) -> dict:
    checked = 0
    mixed_total = 0
    fail = None
    for i in range(len(facs)):
        two_n = c_lo + 2 * i
        n = two_n >> 1
        k = n - 2
        h = partition_total(two_n)
        bmask = btype_bytes(k, tuple(facs[i]))
        fwd = int.from_bytes(bmask[:h], "little")
        rev = int.from_bytes(bmask[k - h :][::-1], "little")
        x = fwd ^ rev
        checked += 1
        if x:
            mixed_total += x.bit_count()
            if fail is None:
                j = x.to_bytes(h, "little").find(1)
                a = 3 + 2 * j
                fail = {"two_n": two_n, "partition": [a, two_n - a]}
    return {"checked": checked, "mixed_total": mixed_total, "fail": fail,
            "boundary": []}


def _chunk_s_bound(c_lo, c_hi, facs, table) -> dict:
    bits = table.odd_bits
    pi = _pi_odd_upto(c_lo - 3, table)
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


def _chunk_companions(c_lo, c_hi, facs, table) -> dict:
    """Window form of the companion checks, one even target at a time.

    For each target: A-primes are the unmarked primes of the window, their
    companions sit at mirrored indices, and the checks are (1) no companion
    is marked B-type, (2) prime companions are exactly the A-prime
    companions, (3) the factor route marked every odd prime factor of 2N,
    and (4) spot targets get a direct divisibility test.
    """
    bits = table.odd_bits
    checked = 0
    a_total = 0
    fail = None
    boundary = []
    for i in range(len(facs)):
        two_n = c_lo + 2 * i
        if two_n == 6:
            boundary.append({"two_n": 6})
            continue
        checked += 1
        if fail is not None:
            continue
        n = two_n >> 1
        k = n - 2
        bmask = btype_bytes(k, tuple(facs[i]))
        pwin = bits[1 : n - 1]
        b_int = int.from_bytes(bmask, "little")
        p_int = int.from_bytes(pwin, "little")
        a_int = p_int & ~b_int
        a_total += a_int.bit_count()
        if a_int == 0:
            continue
        rev_b = int.from_bytes(bmask[::-1], "little")
        viol = a_int & rev_b
        if viol:
            j = viol.to_bytes(k, "little").find(1)
            p = 3 + 2 * j
            fail = {"two_n": two_n, "p": p, "companion": two_n - p,
                    "reason": "companion is B-type"}
            continue
        abytes = a_int.to_bytes(k, "little")
        rev_p = int.from_bytes(pwin[::-1], "little")
        rev_a = int.from_bytes(abytes[::-1], "little")
        if (a_int & rev_p) != (a_int & rev_a):
            x = (a_int & rev_p) ^ (a_int & rev_a)
            j = x.to_bytes(k, "little").find(1)
            p = 3 + 2 * j
            fail = {"two_n": two_n, "p": p, "companion": two_n - p,
                    "reason": "prime companion is not an A-prime"}
            continue
        for q in facs[i]:
            if two_n % q != 0 or bmask[(q - 3) >> 1] != 1 or abytes[(q - 3) >> 1]:
                fail = {"two_n": two_n, "q": q,
                        "reason": "factor route missed an odd prime factor"}
                break
        if fail is not None:
            continue
        for j in (abytes.find(1), abytes.rfind(1)):
            p = 3 + 2 * j
            if (two_n - p) % p == 0:
                fail = {"two_n": two_n, "p": p, "companion": two_n - p,
                        "reason": "companion divisible by its own prime"}
                break
    return {"checked": checked, "fail": fail, "boundary": boundary,
            "a_primes_checked": a_total}


def _chunk_pair_scan(c_lo, c_hi, table, want_pairing, want_witness) -> dict:
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


def _chunk_midpoint_coprime(c_lo, c_hi, table) -> dict:
    first = max(c_lo, 8)
    fail = None
    for two_n in range(first, c_hi + 1, 2):
        v1, v2 = midpoint_values(two_n)
        g1 = math.gcd(v1, two_n)
        g2 = math.gcd(v2, two_n)
        if g1 != 1 or g2 != 1:
            fail = {"two_n": two_n, "values": [v1, v2], "gcds": [g1, g2]}
            break
    return {"checked": (c_hi - first) // 2 + 1, "fail": fail,
            "boundary": [{"two_n": 6}] if c_lo == 6 else []}


def _chunk_midpoint_decomposes(c_lo, c_hi, halo, table) -> dict:
    """Check that the midpoint flankers of each even in [c_lo, c_hi] factor
    over its A-primes.

    ``halo`` lists the odd prime factors of the evens in [c_lo - 4, c_hi + 4],
    2 evens past each end of the chunk.  A flanker v of 2N has 2v = 2N -+ 2 or
    2N -+ 4, so its factors sit at index (2v - c_lo + 4) >> 1.  An odd prime
    shared by v * rad(v) and a target 2v -+ 2 or 2v -+ 4 divides v*v - 1 or
    v*v - 4, so two gcds per flanker find every target that can fail; only
    those and the targets with two prime flankers are checked, in ascending
    order.
    """
    bits = table.odd_bits
    first = max(c_lo, 8)
    vb = ((first >> 1) - 2) | 1
    vs = range(vb, (((c_hi >> 1) + 1) | 1) + 1, 2)  # every flanker in the chunk
    todo = set()
    for v, rad in zip(vs, map(math.prod, halo[vb - (c_lo >> 1) + 2 :: 2])):
        if math.gcd(v * rad, v * v - 1) != 1:
            todo.update((2 * v - 2, 2 * v + 2))
        if math.gcd(v * rad, v * v - 4) != 1:
            todo.update((2 * v - 4, 2 * v + 4))
    pr = bits[vb >> 1 : (vb >> 1) + len(vs)]
    for step in (1, 2):  # prime flankers v, v + 2 * step of 2v + 2 * step
        todo.update(compress(range(2 * (vb + step), c_hi + 1, 4),
                             map(and_, pr, pr[step:])))
    fail = None
    both_prime = 0
    for two_n in sorted(t for t in todo if first <= t <= c_hi):
        v1, v2 = midpoint_values(two_n)
        for v in (v1, v2):
            if bits[v >> 1]:
                if two_n % v == 0:
                    fail = {"two_n": two_n, "value": v,
                            "reason": "prime midpoint divides target"}
                    break
                continue
            # lists ascend, so shared[0] is the smallest shared prime
            shared = [q for q in halo[(2 * v - c_lo + 4) >> 1] if two_n % q == 0]
            if shared:
                fail = {"two_n": two_n, "value": v, "shared_prime": shared[0]}
                break
        if fail is None and bits[v1 >> 1] and bits[v2 >> 1]:
            both_prime += 1
            if v1 + v2 != two_n:
                fail = {"two_n": two_n, "values": [v1, v2],
                        "reason": "prime midpoints do not sum back"}
        if fail is not None:
            break
    return {"checked": (c_hi - first) // 2 + 1, "fail": fail,
            "boundary": [{"two_n": 6}] if c_lo == 6 else [],
            "both_prime_pairs": both_prime}


def _chunk_prime_power(c_lo, c_hi, table) -> dict:
    """Enumerate every 2N = p + p**k identity in the chunk and check that its
    prime divides 2N (so the solution prime is B-type, never an A-prime)."""
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


def _chunk_comet(c_lo, c_hi, table) -> list[tuple[int, int, int, int, int]]:
    """Rows (two_n, r, s, a_count, b_count) for every even in the chunk."""
    bits = table.odd_bits
    facs = _odd_factor_lists(c_lo, c_hi, table)
    pi = _pi_odd_upto(c_lo - 3, table)
    rows = []
    for i in range(len(facs)):
        two_n = c_lo + 2 * i
        if i:
            pi += bits[(two_n - 3) >> 1]
        n = two_n >> 1
        k = n - 2
        bmask = btype_bytes(k, tuple(facs[i]))
        pwin = bits[1 : n - 1]
        _, a_count, b_count, _, r = census_from_windows(two_n, bmask, pwin)
        s = pi - len(facs[i])
        rows.append((two_n, r, s, a_count, b_count))
    return rows


# ---------------------------------------------------------------------------
# Range verification: orchestration
# ---------------------------------------------------------------------------

_WORKER_TABLE: PrimeTable | None = None


def _worker_init(table: PrimeTable) -> None:
    global _WORKER_TABLE
    _WORKER_TABLE = table


def _claims_job(args) -> dict:
    c_lo, c_hi, names = args
    return _evaluate_chunk(c_lo, c_hi, names, _WORKER_TABLE)


def _comet_job(args) -> list:
    c_lo, c_hi = args
    return _chunk_comet(c_lo, c_hi, _WORKER_TABLE)


def _evaluate_chunk(c_lo, c_hi, names, table) -> dict:
    """Partial results of the named claims for the evens in [c_lo, c_hi].

    One factor sieve serves all claims that need factors; it runs 2 evens
    past each end of the chunk, where the midpoint flankers' factors sit.
    """
    claims = {ClaimId(name) for name in names}
    out = {}
    halo = facs = None
    if claims & {ClaimId.SAME_TYPE_LEMMA, ClaimId.S_BOUND,
                 ClaimId.COMPANION_DECOMPOSES, ClaimId.MIDPOINT_DECOMPOSES}:
        halo = _odd_factor_lists(c_lo - 4, c_hi + 4, table)
        facs = halo[2:-2]
    if ClaimId.SAME_TYPE_LEMMA in claims:
        out[ClaimId.SAME_TYPE_LEMMA.value] = _chunk_same_type(c_lo, c_hi, facs, table)
    if ClaimId.S_BOUND in claims:
        out[ClaimId.S_BOUND.value] = _chunk_s_bound(c_lo, c_hi, facs, table)
    if ClaimId.COMPANION_DECOMPOSES in claims:
        out[ClaimId.COMPANION_DECOMPOSES.value] = _chunk_companions(
            c_lo, c_hi, facs, table
        )
    want_pairing = ClaimId.PAIRING_NON_EMPTY in claims
    want_witness = ClaimId.GOLDBACH_WITNESS in claims
    if want_pairing or want_witness:
        scan = _chunk_pair_scan(c_lo, c_hi, table, want_pairing, want_witness)
        if want_witness:
            out[ClaimId.GOLDBACH_WITNESS.value] = scan["witness"]
        if want_pairing:
            out[ClaimId.PAIRING_NON_EMPTY.value] = scan["pairing"]
    if ClaimId.MIDPOINT_COPRIME in claims:
        out[ClaimId.MIDPOINT_COPRIME.value] = _chunk_midpoint_coprime(c_lo, c_hi, table)
    if ClaimId.MIDPOINT_DECOMPOSES in claims:
        out[ClaimId.MIDPOINT_DECOMPOSES.value] = _chunk_midpoint_decomposes(
            c_lo, c_hi, halo, table
        )
    if ClaimId.PRIME_POWER_EXCLUSION in claims:
        out[ClaimId.PRIME_POWER_EXCLUSION.value] = _chunk_prime_power(
            c_lo, c_hi, table
        )
    return out


def _chunk_ranges(lo: int, hi: int, chunk_evens: int) -> list[tuple[int, int]]:
    span = 2 * chunk_evens
    return [(c, min(c + span - 2, hi)) for c in range(lo, hi + 1, span)]


def _map_chunks(job, args_list, workers: int, table: PrimeTable) -> list:
    if workers <= 1 or len(args_list) <= 1:
        _worker_init(table)
        return [job(a) for a in args_list]
    with multiprocessing.Pool(workers, _worker_init, (table,)) as pool:
        return pool.map(job, args_list, chunksize=1)


def _validate_range(lo: int, hi: int, workers: int) -> None:
    if lo % 2 or hi % 2:
        raise UsageError(f"range bounds must be even, got [{lo}, {hi}]")
    if not 6 <= lo <= hi:
        raise UsageError(f"need 6 <= lo <= hi, got [{lo}, {hi}]")
    if workers < 1:
        raise UsageError(f"workers must be >= 1, got {workers}")


def _merge_stat(best, candidate, better) -> list | None:
    if candidate is None:
        return best
    if best is None or better(candidate[0], best[0]):
        return list(candidate)
    return best


def _merge_partials(claim_id: ClaimId, partials: list[dict], lo: int, hi: int
                    ) -> ClaimOutcome:
    checked = sum(p["checked"] for p in partials)
    boundary: list[dict] = []
    for p in partials:
        boundary.extend(p.get("boundary", ()))
    fail = next((p["fail"] for p in partials if p.get("fail") is not None), None)
    payload: dict = {"evens_checked": checked}
    if claim_id is ClaimId.S_BOUND:
        mn = mx = None
        for p in partials:
            mn = _merge_stat(mn, p["min_s"], lambda a, b: a < b)
            mx = _merge_stat(mx, p["max_s"], lambda a, b: a > b)
        if mn:
            payload["min_s"] = {"s": mn[0], "two_n": mn[1]}
        if mx:
            payload["max_s"] = {"s": mx[0], "two_n": mx[1]}
    elif claim_id is ClaimId.SAME_TYPE_LEMMA:
        payload["mixed_total"] = sum(p["mixed_total"] for p in partials)
    elif claim_id is ClaimId.GOLDBACH_WITNESS:
        payload["a_pair_evens"] = sum(p["a_pair_evens"] for p in partials)
        payload["b_self_evens"] = sum(p["b_self_evens"] for p in partials)
        mp = None
        for p in partials:
            mp = _merge_stat(mp, p["max_min_p"], lambda a, b: a > b)
        if mp:
            payload["max_smallest_prime"] = {"p": mp[0], "two_n": mp[1]}
    elif claim_id is ClaimId.PAIRING_NON_EMPTY:
        payload["a_pair_evens"] = sum(p["a_pair_evens"] for p in partials)
        payload["b_self_evens"] = sum(p["b_self_evens"] for p in partials)
    elif claim_id is ClaimId.COMPANION_DECOMPOSES:
        payload["a_primes_checked"] = sum(p["a_primes_checked"] for p in partials)
    elif claim_id is ClaimId.PRIME_POWER_EXCLUSION:
        payload["identities_inspected"] = sum(
            p["identities_inspected"] for p in partials
        )
    elif claim_id is ClaimId.MIDPOINT_DECOMPOSES:
        payload["both_prime_pairs"] = sum(p["both_prime_pairs"] for p in partials)
    if fail is not None:
        payload["counterexample"] = fail
        status = FAIL
    elif boundary:
        payload["boundary_cases"] = boundary
        status = BOUNDARY
    else:
        status = PASS
    return ClaimOutcome(claim_id=claim_id, lo=lo, hi=hi, status=status,
                        payload=payload)


def range_verify(
    lo: int,
    hi: int,
    claims: tuple[ClaimId, ...] = ALL_CLAIMS,
    workers: int = 1,
    table: PrimeTable | None = None,
    chunk_evens: int = DEFAULT_CHUNK_EVENS,
) -> list[ClaimOutcome]:
    """Evaluate the selected claims for every even target in [lo, hi].

    Returns one aggregated outcome per claim, with the smallest failing
    target as the counterexample when a claim fails.  Output is independent
    of the worker count.
    """
    _validate_range(lo, hi, workers)
    if table is None:
        table = build_table(hi + 1)
    elif table.limit < hi - 3:
        raise UsageError(
            f"table limit {table.limit} does not cover range end {hi}"
        )
    selected = tuple(c for c in ALL_CLAIMS if c in set(claims))
    names = tuple(c.value for c in selected)
    jobs = [(c_lo, c_hi, names) for c_lo, c_hi in _chunk_ranges(lo, hi, chunk_evens)]
    partials = _map_chunks(_claims_job, jobs, workers, table)
    outcomes = []
    for cid in selected:
        per_claim = [p[cid.value] for p in partials]
        outcomes.append(_merge_partials(cid, per_claim, lo, hi))
    return outcomes


def comet_rows(
    lo: int,
    hi: int,
    workers: int = 1,
    table: PrimeTable | None = None,
    chunk_evens: int = DEFAULT_CHUNK_EVENS,
) -> list[tuple[int, int, int, int, int]]:
    """(two_n, r, s, a_count, b_count) for every even in [lo, hi], ascending."""
    _validate_range(lo, hi, workers)
    if table is None:
        table = build_table(hi + 1)
    elif table.limit < hi - 3:
        raise UsageError(
            f"table limit {table.limit} does not cover range end {hi}"
        )
    jobs = _chunk_ranges(lo, hi, chunk_evens)
    chunks = _map_chunks(_comet_job, jobs, workers, table)
    rows = []
    for chunk in chunks:
        rows.extend(chunk)
    return rows
