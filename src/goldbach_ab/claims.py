"""One verifier per structural claim about an even target, plus range runs.

Single-target verifiers follow the definitions literally (enumerate the
A-primes, factor every companion, and so on).  Range verification re-derives
the same verdicts from window arithmetic that is feasible for millions of
targets: a running prime count, and a per-chunk distinct-factor sieve that
also factors the midpoint flankers, so no range route trial-divides.  The
same-type, companion and comet routes hold each target's windows at one bit
per odd in a big int: the prime window and its mirror are cut from the
table packed once per chunk, and the B-type mask and its mirror are ORs
of stride patterns, the mirror shifted to the residue class of the reversed
first multiple.

The linear claims evaluate a whole chunk per step.  The Goldbach scan holds
the chunk's unresolved targets in one int and resolves, for each odd prime
p in ascending order, all targets whose partner 2N - p is prime with one
shifted window of the table packed from just below the chunk.  The prime
count behind s is counted once below the range and carried from chunk to
chunk in the job.  The remaining per-target work runs in C-level iteration
(``accumulate``, ``map``, slice assignment).  The test suite pins the fast
routes to the single-target routes and to scalar oracles, and the bit
windows to the byte windows of ``classify``.

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
from itertools import accumulate, compress
from operator import and_, mul, sub

from .classify import EvenTarget, PrimeSplit, prime_window, split_primes
from .errors import CounterexampleFound, NotAPureAProduct, UsageError
from .partition import (
    census,
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
# Range verification: bit-packed windows
# ---------------------------------------------------------------------------

# Mark patterns of the primes below this bound are kept for a whole chunk;
# they are the factors most targets share.  That is at most 10 patterns of
# about c_hi / 2 bits each.
_MARKS_CACHE_BELOW = 32

_ASCII_BITS = bytes.maketrans(b"\x00\x01", b"01")


def _low_bit(x: int) -> int:
    """Index of the lowest set bit of x > 0."""
    return (x ^ (x - 1)).bit_length() - 1


def _stride(start: int, step: int, width: int) -> int:
    """Bits start + m * step for every m * step below ``width``, built by
    doubling; it may overshoot by up to ``width`` bits."""
    v, span = 1 << start, step
    while span < width:
        v |= v << span
        span <<= 1
    return v


def _pack(bits: bytes) -> int:
    """A 0/1 byte string as an int, byte j to bit j; base-2 parsing of the
    ASCII image is linear."""
    return int(bits.translate(_ASCII_BITS)[::-1], 2)


class _BitWindows:
    """The windows of ``classify`` for the evens of one chunk, one bit per odd.

    For a target 2N with k = N - 2, bit j stands for the odd value 3 + 2j.
    Each method returns a window and its reversal over all k bits, both cut
    to ``mask``, the low ``width <= k`` bits.
    """

    def __init__(self, table: PrimeTable, c_hi: int):
        self.k_max = (c_hi >> 1) - 2
        # The table's bits for 1, 3, ..., c_hi - 3; base-2 parsing of their
        # ASCII image is linear.  fwd has bit j for 3 + 2j, rev has them all
        # in reverse order.
        text = table.odd_bits[: self.k_max + 1].translate(_ASCII_BITS)
        self.fwd = int(text[:0:-1], 2)
        self.rev = int(text, 2)
        self.marks: dict[int, int] = {}

    def primes(self, k: int, mask: int) -> tuple[int, int]:
        """``prime_window`` and its reversal."""
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

    Sieve-style, one slice per odd prime power q <= c_hi / 2: the evens
    divisible by 2q sit at stride q from index (-c_lo / 2) mod q.  Each of
    the table's small primes up to sqrt(c_hi) is appended along its stride
    and divides the odd parts down along the strides of its powers; whatever
    survives above 1 is a single prime factor larger than them: the table
    reaches c_hi - 7 at least, so two larger factors would exceed c_hi.
    """
    cof = [v // (v & -v) for v in range(c_lo, c_hi + 1, 2)]
    facs: list[list[int]] = [[] for _ in cof]
    h = c_lo >> 1
    small = table.small_primes
    for p in small[1 : bisect_right(small, math.isqrt(c_hi))]:
        for lst in facs[-h % p :: p]:
            lst.append(p)
        q = p
        while q <= c_hi >> 1:
            s = -h % q
            cof[s::q] = [c // p for c in cof[s::q]]
            q *= p
    for lst, c in zip(facs, cof):
        if c > 1:
            lst.append(c)
    return facs


def _chunk_same_type(c_lo, c_hi, facs, table) -> dict:
    """Bit form of the census' mixed count: a partition (a, 2N - a) is mixed
    exactly where the B-type window and its reversal differ."""
    win = _BitWindows(table, c_hi)
    checked = 0
    mixed_total = 0
    fail = None
    for i, qs in enumerate(facs):
        two_n = c_lo + 2 * i
        b, rb = win.btype((two_n >> 1) - 2, qs, (1 << partition_total(two_n)) - 1)
        x = b ^ rb
        checked += 1
        if x:
            mixed_total += x.bit_count()
            if fail is None:
                a = 3 + 2 * _low_bit(x)
                fail = {"two_n": two_n, "partition": [a, two_n - a]}
    return {"checked": checked, "mixed_total": mixed_total, "fail": fail,
            "boundary": []}


def _chunk_s_bound(c_lo, c_hi, pi, facs, table) -> dict:
    """s(2N) = pi(2N - 3) - omega_odd(2N) for the whole chunk: a running prime
    count from the carried pi = pi(c_lo - 3), less each target's listed
    factors; the first minimum, maximum and s < 2 in target order."""
    i0 = (c_lo >> 1) - 1  # table index of c_lo - 1, the next odd counted
    pis = accumulate(table.odd_bits[i0 : i0 + len(facs) - 1], initial=pi)
    ss = list(map(sub, pis, map(len, facs)))
    boundary = []
    if c_lo == 6:
        boundary.append({"two_n": 6, "s": ss.pop(0)})
        c_lo = 8
    out = {"checked": len(ss), "fail": None, "boundary": boundary,
           "min_s": None, "max_s": None}
    if ss:
        lo, hi = min(ss), max(ss)
        out["min_s"] = [lo, c_lo + 2 * ss.index(lo)]
        out["max_s"] = [hi, c_lo + 2 * ss.index(hi)]
        if lo < 2:
            i = next(i for i, s in enumerate(ss) if s < 2)
            out["fail"] = {"two_n": c_lo + 2 * i, "s": ss[i]}
    return out


def _chunk_companions(c_lo, c_hi, facs, table) -> dict:
    """Window form of the companion checks, one even target at a time.

    For each target: A-primes are the unmarked primes of the window, their
    companions sit at mirrored indices, and the checks are (1) no companion
    is marked B-type, (2) every listed factor divides 2N, and (3) spot
    targets get a direct divisibility test.  Once (1) holds, a prime
    companion is an A-prime, and a listed factor is marked, never an A-prime.
    """
    win = _BitWindows(table, c_hi)
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
        if fail is not None:
            continue
        k = (two_n >> 1) - 2
        mask = (1 << k) - 1
        b, rb = win.btype(k, qs, mask)
        a = win.fwd & (b ^ mask)  # b ^ mask is ~b within the window
        a_total += a.bit_count()
        if a == 0:
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
        for j in (_low_bit(a), a.bit_length() - 1):
            p = 3 + 2 * j
            if (two_n - p) % p == 0:
                fail = {"two_n": two_n, "p": p, "companion": two_n - p,
                        "reason": "companion divisible by its own prime"}
                break
    return {"checked": checked, "fail": fail, "boundary": boundary,
            "a_primes_checked": a_total}


def _chunk_pair_scan(c_lo, c_hi, table, want_pairing, want_witness) -> dict:
    """Smallest-prime Goldbach scan shared by the witness and pairing claims,
    over all targets of the chunk at once.

    Bit i of ``left`` stands for the target c_lo + 2i whose smallest prime p
    with 2N - p marked prime is still unknown.  For each odd prime p up to
    c_hi / 2, read off the table in ascending order, the targets with
    2N - p marked prime are one shifted window of the table packed from
    index c_lo / 2 - P / 2 on, where P doubles whenever the scan passes it;
    a window hit resolves its targets.
    The hits on the stride of the multiples of p have p | 2N; a true table
    allows that only for 2N = p + p, so any other such hit fails the witness
    claim.
    """
    bits = table.odd_bits
    h = c_lo >> 1
    nev = (c_hi - c_lo) // 2 + 1
    left = (1 << nev) - 1
    b_self_evens = 0
    divisible = None  # (bit, p) of the first divisible partner marked prime
    last = None  # (p, hit) of the last prime with hits
    span = 64
    base = max(0, h - span // 2)
    packed = _pack(bits[base : c_hi >> 1])
    for p in table.odd_primes(3, c_hi >> 1):
        if not left:
            break
        if p > span:
            span <<= 1
            base = max(0, h - span // 2)
            packed = _pack(bits[base : c_hi >> 1])
        shift = h - ((p + 1) >> 1) - base  # bit 0 of the window: c_lo - p
        hit = (packed >> shift if shift >= 0 else packed << -shift) & left
        if p > h:  # only targets with N >= p take p
            hit = hit >> (p - h) << (p - h)
        if not hit:
            continue
        left ^= hit
        last = p, hit
        div = hit & _stride(-h % p, p, nev)
        if div:
            b_self_evens += div.bit_count()
            if 0 <= p - h < nev:  # 2N = p + p
                div &= ~(1 << (p - h))
            if div and (divisible is None or _low_bit(div) < divisible[0]):
                divisible = _low_bit(div), p
    a_pair_evens = nev - left.bit_count() - b_self_evens
    witness_fail = pairing_fail = None
    if left:
        witness_fail = {"two_n": c_lo + 2 * _low_bit(left), "count": 0}
    if divisible and (not left or divisible[0] < _low_bit(left)):
        witness_fail = {"two_n": c_lo + 2 * divisible[0], "p": divisible[1],
                        "reason": "divisible partner reported prime"}
    pairing_boundary = []
    if c_lo == 6:  # the boundary target 2N = 6 = 3 + 3 never fails pairing
        if left & 1:
            left ^= 1
        else:
            pairing_boundary.append({"two_n": 6, "pair": [3, 3]})
    if left:
        pairing_fail = {"two_n": c_lo + 2 * _low_bit(left), "count": 0}
    max_min_p = None
    if last:
        max_min_p = [last[0], c_lo + 2 * _low_bit(last[1])]
    out = {"checked": nev}
    if want_witness:
        out["witness"] = {"checked": nev, "fail": witness_fail, "boundary": [],
                          "a_pair_evens": a_pair_evens,
                          "b_self_evens": b_self_evens,
                          "max_min_p": max_min_p}
    if want_pairing:
        out["pairing"] = {"checked": nev - len(pairing_boundary),
                          "fail": pairing_fail, "boundary": pairing_boundary,
                          "a_pair_evens": a_pair_evens,
                          "b_self_evens": b_self_evens}
    return out


def _chunk_midpoint_coprime(c_lo, c_hi, table) -> dict:
    """One gcd per target, of 2N with the product of its flankers, over each
    residue class of 2N mod 4 (flankers N -+ 1 for even N, N -+ 2 for odd N)."""
    first = max(c_lo, 8)
    bad = []
    for t0 in (first, first + 2):
        d = 1 + (t0 >> 1) % 2
        ts = range(t0, c_hi + 1, 4)
        prods = map(mul, range((t0 >> 1) - d, c_hi, 2), range((t0 >> 1) + d, c_hi, 2))
        if sum(map(math.gcd, prods, ts)) != len(ts):  # some gcd above 1
            bad.append(next(t for t in ts
                            if math.gcd(math.prod(midpoint_values(t)), t) != 1))
    fail = None
    if bad:
        two_n = min(bad)
        v1, v2 = midpoint_values(two_n)
        fail = {"two_n": two_n, "values": [v1, v2],
                "gcds": [math.gcd(v1, two_n), math.gcd(v2, two_n)]}
    return {"checked": (c_hi - first) // 2 + 1, "fail": fail,
            "boundary": [{"two_n": 6}] if c_lo == 6 else []}


def _chunk_midpoint_decomposes(c_lo, c_hi, halo, table) -> dict:
    """Check that the midpoint flankers of each even in [c_lo, c_hi] factor
    over its A-primes.

    ``halo`` lists the odd prime factors of the evens in [c_lo - 4, c_hi + 4],
    2 evens past each end of the chunk.  A flanker v of 2N has 2v = 2N -+ 2 or
    2N -+ 4, so its factors sit at index (2v - c_lo + 4) >> 1.  A listed
    prime of v that divides a target 2v -+ 2 or 2v -+ 4 divides v*v - 1 or
    v*v - 4, which no odd factor of v does; so the flankers whose listed
    primes do not all divide v take two gcds that find every target that can
    fail.  Only those and the targets with two prime flankers are checked, in
    ascending order.
    """
    bits = table.odd_bits
    first = max(c_lo, 8)
    vb = ((first >> 1) - 2) | 1
    vs = range(vb, (((c_hi >> 1) + 1) | 1) + 1, 2)  # every flanker in the chunk
    todo = set()
    for v, rad in zip(vs, map(math.prod, halo[vb - (c_lo >> 1) + 2 :: 2])):
        if v % rad:
            if math.gcd(rad, v * v - 1) != 1:
                todo.update((2 * v - 2, 2 * v + 2))
            if math.gcd(rad, v * v - 4) != 1:
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
    first = max(c_lo, 8)
    # k = 1: 2N = N + N for every odd N marked prime, at table index N >> 1 =
    # 2N >> 2 for the targets 2N = 2 mod 4.  N divides 2N, so these only count.
    inspected = table.odd_bits[first >> 2 : ((c_hi - 2) >> 2) + 1].count(1)
    fail = None
    small = table.small_primes
    for p in small[1 : bisect_right(small, math.isqrt(c_hi))]:
        v = p * p
        while p + v <= c_hi:
            two_n = p + v
            if two_n >= c_lo:
                inspected += 1
                if two_n % p != 0 and fail is None:
                    fail = {"two_n": two_n, "p": p, "power": v}
            v *= p
    return {"checked": (c_hi - first) // 2 + 1, "fail": fail,
            "boundary": [{"two_n": 6}] if c_lo == 6 else [],
            "identities_inspected": inspected}


def _chunk_comet(c_lo, c_hi, pi, table) -> list[tuple[int, int, int, int, int]]:
    """Rows (two_n, r, s, a_count, b_count) for every even in the chunk, with
    pi = pi(c_lo - 3) carried in.

    The counts are ``census_from_windows`` on bit windows cut to the h
    partitions of each target.
    """
    bits = table.odd_bits
    facs = _odd_factor_lists(c_lo, c_hi, table)
    win = _BitWindows(table, c_hi)
    rows = []
    for i, qs in enumerate(facs):
        two_n = c_lo + 2 * i
        if i:
            pi += bits[(two_n - 3) >> 1]
        k = (two_n >> 1) - 2
        h = partition_total(two_n)
        mask = (1 << h) - 1
        b, rb = win.btype(k, qs, mask)
        pf, pr = win.primes(k, mask)
        r = (pf & pr).bit_count()
        a_count = h - (b | rb).bit_count()
        rows.append((two_n, r, pi - len(qs), a_count, (b & rb).bit_count()))
    return rows


# ---------------------------------------------------------------------------
# Range verification: orchestration
# ---------------------------------------------------------------------------

_WORKER_TABLE: PrimeTable | None = None


def _worker_init(table: PrimeTable) -> None:
    global _WORKER_TABLE
    _WORKER_TABLE = table


def _pooled(task):
    """Run one chunk job in a pool worker, on the table the pool handed it."""
    job, args = task
    return job(*args, _WORKER_TABLE)


def _evaluate_chunk(c_lo, c_hi, pi, names, table) -> dict:
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
        out[ClaimId.S_BOUND.value] = _chunk_s_bound(c_lo, c_hi, pi, facs, table)
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


def _chunk_ranges(lo: int, hi: int, chunk_evens: int, table: PrimeTable
                  ) -> list[tuple[int, int, int]]:
    """(c_lo, c_hi, pi(c_lo - 3)) per chunk: one prime count below lo, then
    each chunk's own span."""
    span = 2 * chunk_evens
    pi = _pi_odd_upto(lo - 3, table)
    chunks = []
    for c in range(lo, hi + 1, span):
        chunks.append((c, min(c + span - 2, hi), pi))
        pi += table.odd_bits[(c >> 1) - 1 : ((c + span) >> 1) - 1].count(1)
    return chunks


def _map_chunks(job, args_list, workers: int, table: PrimeTable) -> list:
    """job(*args, table) for every args in order, in a pool when it pays.

    Only pool workers keep the table in a global; the in-process path hands
    it over directly, so nothing keeps it alive after the run."""
    if workers <= 1 or len(args_list) <= 1:
        return [job(*args, table) for args in args_list]
    processes = min(workers, len(args_list))
    with multiprocessing.Pool(processes, _worker_init, (table,)) as pool:
        return pool.map(_pooled, [(job, args) for args in args_list], chunksize=1)


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
    jobs = [(*chunk, names) for chunk in _chunk_ranges(lo, hi, chunk_evens, table)]
    partials = _map_chunks(_evaluate_chunk, jobs, workers, table)
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
    jobs = _chunk_ranges(lo, hi, chunk_evens, table)
    chunks = _map_chunks(_chunk_comet, jobs, workers, table)
    rows = []
    for chunk in chunks:
        rows.extend(chunk)
    return rows
