"""One verifier per structural claim about an even target, plus range runs.

Single-target reports follow the definitions (enumerate the A-primes,
factor every companion over them, and so on), reading the per-target objects
from one TargetContext, which builds each of them at most once.  Range
verification decides every claim from window arithmetic that is
feasible for millions of targets: a running prime count, and one fused
chunk sieve over the odd prime factors of the chunk's evens and of the
midpoint flankers' doubles, so no range route trial-divides.  A claim but
s_bound fails on a single target only where its one-target chunk fails.

The fused sieve (``_factor_sieve``) walks each small prime's strides with
slice operations and gives, per even, omega (its count of odd primes, its
big prime found by exact log weights; comet reads it whole and companions
sums it), a bit that every counted factor divides 2N, and phi(2N) where the
factors are exactly the odd primes of 2N.  The s statistics read omega only
on a short head and tail of each chunk, under an a-priori primorial bound,
so the linear claims sieve no whole chunk.  On
the sieve both bits hold by construction.  When every factor divides 2N,
the B-type window is its own mirror and no partition is mixed; same-type
needs no more.  When they are exactly the odd primes of 2N, gcd(a, 2N) =
gcd(2N - a, 2N) also gives a_count = phi(2N) / 2 - 1, and its A-primes are
s(2N) on a trusted table: one the run sieved, or one equal to a fresh sieve.
Other targets take the byte windows of ``classify`` on their factor lists,
which are built only for them.  r(2N) comes from one square of the bitmap
polynomial in C ``decimal`` (Kronecker substitution, number-theoretic
transform) where a work estimate says the targets' prime windows cost more,
else from the windows.  Three kernels read a caller's table's departures
from a fresh sieve, where s is no longer pi - omega and a cleared prime
can break a companion or a flanker.

The linear claims evaluate a whole chunk per step.  The Goldbach scan holds
the chunk's unresolved targets in one int and resolves, for each odd prime
p in ascending order, all targets whose partner 2N - p is prime with one
shifted window of the table packed from just below the chunk.  The prime
count behind s is counted once below the range and carried from chunk to
chunk in the job.  The remaining per-target work runs in C-level iteration
(``accumulate``, ``map``, slice assignment).  The test suite pins the fast
routes to the single-target routes and to scalar and bit-window oracles.

Range runs are split into fixed-size chunks of consecutive even numbers.
Chunk boundaries never depend on the worker count and results are merged in
ascending order, so output is identical for any number of workers.

``CLAIM_SPECS`` holds all per-claim knowledge, one ``ClaimSpec`` per
``ClaimId``: the single-target verdict on a TargetContext, the range kernel
and the short CLI names.  Every range kernel, comet's included, reads one
_ChunkContext that builds each shared input of its chunk once, through the
chunk jobs that verify and comet share, and reads the table only through
the context.  Chunk partials merge field by field, with no knowledge of the
claim, so adding a claim takes one ``ClaimId`` member and one ``ClaimSpec``.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_left, bisect_right
from collections.abc import Callable
from enum import Enum
from functools import cache, cached_property
from itertools import accumulate, chain, compress, repeat
from operator import add, eq, floordiv, gt, itemgetter, mod, mul, not_, rshift, sub, truth

from ._record import Record, set_field
from .classify import EvenTarget, PrimeSplit, btype_bytes, split_primes, window_end
from .errors import CounterexampleFound, NotAPureAProduct, UsageError
from .partition import (
    PartitionCensus,
    census,
    kind_of_prime_pair,
    mirror_pair,
    mixed_partitions,
    partition_total,
    prime_mirror,
    self_pair,
)
from .sieve import PrimeTable, build_table, factorize


def __getattr__(name: str):
    """``multiprocessing`` and ``_decimal``, imported when a run first pools or
    squares, so that a fresh process loads neither; a value set on the module
    beforehand wins.  ``_decimal`` is None where it is missing."""
    if name == "multiprocessing":
        import multiprocessing as module
    elif name == "_decimal":
        try:  # libmpdec multiplies huge operands by number-theoretic transform
            import _decimal as module
        except ImportError:  # pure-Python decimal squares slower than the windows run
            module = None
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = module
    return module


def _lazy(name: str):
    """The module attribute ``name``, imported by ``__getattr__`` if unset."""
    g = globals()
    return g[name] if name in g else __getattr__(name)


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


class ClaimOutcome(Record):
    """Verdict for one claim over one target (lo == hi) or an even range."""

    def __init__(self, claim_id: ClaimId, lo: int, hi: int, status: str,
                 payload: dict) -> None:
        set_field(self, "claim_id", claim_id)
        set_field(self, "lo", lo)
        set_field(self, "hi", hi)
        set_field(self, "status", status)
        set_field(self, "payload", payload)

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


class ExponentVector(Record):
    """Factorization of an odd number expressed over the A-prime basis.

    Stored sparsely as (basis index, exponent) pairs; the dense ``exps``
    list (same length as the basis, zeros included) is materialized on
    demand because the basis can hold thousands of primes.
    """

    def __init__(self, basis: tuple[int, ...],
                 nonzero: tuple[tuple[int, int], ...]) -> None:
        set_field(self, "basis", basis)
        set_field(self, "nonzero", nonzero)

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

    Raises NotAPureAProduct on the smallest prime factor of m that is no
    A-prime: one that divides 2N, which is exactly the B-type case, or one
    prime to 2N that the table leaves unmarked.
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


class CompanionRecord(Record):
    """One A-prime p with its companion 2N - p and that companion's shape."""

    def __init__(self, p: int, companion: int, companion_is_prime: bool,
                 exps: ExponentVector) -> None:
        set_field(self, "p", p)
        set_field(self, "companion", companion)
        set_field(self, "companion_is_prime", companion_is_prime)
        set_field(self, "exps", exps)


def _smallest_factors(top: int, primes) -> list[int]:
    """sf[i]: the smallest odd one of ``primes`` that divides 2i + 1 <= top,
    0 when none does; one slice per prime, the largest first."""
    size = (top >> 1) + 1
    sf = [0] * size
    for p in reversed(primes):
        i = p >> 1
        if p > 2 and i < size:
            sf[i::p] = [p] * len(range(i, size, p))
    return sf


def _companion_rows(t: EvenTarget, split: PrimeSplit, table: PrimeTable) -> list[tuple]:
    """Flat row (p, 2N - p, companion marked prime, q1, e1, q2, e2, ...), the
    companion's factors ascending, for every A-prime p of ``split``, which is
    ``split_primes(t, table)``.

    The companions are split by walking one smallest-factor sieve over the
    table's small primes, the primes ``factorize`` trial-divides by: a
    cofactor m stops the walk, as a factor of its own, once its smallest
    listed factor q has q * q > m or none is listed.  The small primes come
    from a fresh sieve, so the factors are true primes, ascending.
    """
    two_n = t.two_n
    window_end(two_n, table)
    bits = table.odds(0, two_n - 3)  # byte c >> 1: the odd c
    sf = _smallest_factors(two_n - 3, table.small_primes)
    a_set = set(split.a_primes)
    rows = []
    for p in split.a_primes:
        c = m = two_n - p
        facs = []
        while m > 1:
            q = sf[m >> 1]
            if not q or q * q > m:
                facs.append((m, 1))
                break
            e = 0
            while not m % q:
                m //= q
                e += 1
            facs.append((q, e))
        for q, _ in facs:
            if q not in a_set:  # q divides c, which is prime to 2N: q is unmarked
                raise CounterexampleFound(
                    f"factor {q} of companion {c} of A-prime {p} not marked prime",
                    {"two_n": two_n, "p": p, "companion": c, "factor": q,
                     "reason": "factor not marked prime"})
        rows.append((p, c, bool(bits[c >> 1]), *chain.from_iterable(facs)))
    return rows


def _records(rows, split: PrimeSplit) -> list[CompanionRecord]:
    index = {p: i for i, p in enumerate(split.a_primes)}
    return [CompanionRecord(p, c, is_prime, ExponentVector(split.a_primes, tuple(
        [(index[q], e) for q, e in zip(facs[::2], facs[1::2])])))
        for p, c, is_prime, *facs in rows]


def companions(
    t: EvenTarget, split: PrimeSplit, table: PrimeTable
) -> list[CompanionRecord]:
    """Companion record for every A-prime of ``split``, which is
    ``split_primes(t, table)``; empty when there are none.

    An A-prime p is prime to 2N, so its companion 2N - p is too, and p does
    not divide it.  Each companion must decompose over the A-basis, or
    CounterexampleFound is raised with its smallest factor that the table
    leaves unmarked.  The records are built from the rows of one factor walk
    (``_companion_rows``), which analyze reads without them.
    """
    return _records(_companion_rows(t, split, table), split)


# ---------------------------------------------------------------------------
# Pairing and midpoint reports
# ---------------------------------------------------------------------------


class PairingReport(Record):
    """A-prime Goldbach pairs of 2N plus the A-primes left without a partner."""

    def __init__(self, pairs: tuple[tuple[int, int], ...],
                 unpaired: tuple[int, ...]) -> None:
        set_field(self, "pairs", pairs)
        set_field(self, "unpaired", unpaired)


def pairing_report(t: EvenTarget, split: PrimeSplit, table: PrimeTable) -> PairingReport:
    """Pair up the A-primes of ``split``, which is ``split_primes(t, table)``,
    whose companions are marked prime; list the rest as unpaired.

    An A-prime p has gcd(p, 2N) = 1, so its companion c = 2N - p has
    gcd(c, 2N) = gcd(p, 2N) = 1: a c the table marks prime is itself an
    A-prime whose companion is p, and c != p, since p = N would divide 2N.
    So every A-prime lands in exactly one pair or in unpaired.
    """
    bits = table.odds(0, t.two_n - 3)  # byte c >> 1: the odd c
    pairs = []
    unpaired = []
    for p in split.a_primes:
        c = t.two_n - p
        if bits[c >> 1]:
            if p < c:
                pairs.append((p, c))
        else:
            unpaired.append(p)
    return PairingReport(pairs=tuple(pairs), unpaired=tuple(unpaired))


class MidpointValue(Record):
    """``exps`` is None when the value failed to decompose over the A-basis,
    which analyze reports and the midpoint-decomposes claim fails on."""

    def __init__(self, value: int, is_prime: bool, exps: ExponentVector | None) -> None:
        set_field(self, "value", value)
        set_field(self, "is_prime", is_prime)
        set_field(self, "exps", exps)


class MidpointReport(Record):
    """The two odd numbers flanking N: N-1/N+1 for even N, N-2/N+2 for odd N.

    ``parity`` is the parity of N, "even" or "odd".  ``both_prime_pair``
    holds the (lo, hi) Goldbach pair formed by the two values whenever both
    are prime; they always sum to 2N.
    """

    def __init__(self, parity: str, values: tuple[MidpointValue, MidpointValue],
                 both_prime_pair: tuple[int, int] | None) -> None:
        set_field(self, "parity", parity)
        set_field(self, "values", values)
        set_field(self, "both_prime_pair", both_prime_pair)


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
    bits = table.odds(v1, v2)  # byte j: the odd v1 + 2j
    vals = []
    for v, marked in ((v1, bits[0]), (v2, bits[-1])):
        try:
            exps = decompose_over_a_basis(v, split, table)
        except NotAPureAProduct:
            exps = None
        vals.append(MidpointValue(value=v, is_prime=bool(marked), exps=exps))
    both_prime = vals[0].is_prime and vals[1].is_prime
    return MidpointReport(
        parity="even" if t.n % 2 == 0 else "odd",
        values=(vals[0], vals[1]),
        both_prime_pair=(v1, v2) if both_prime else None,
    )


# ---------------------------------------------------------------------------
# Single-target claim verdicts
# ---------------------------------------------------------------------------


def _single(claim_id: ClaimId, two_n: int, status: str, payload: dict) -> ClaimOutcome:
    return ClaimOutcome(claim_id=claim_id, lo=two_n, hi=two_n, status=status,
                        payload=payload)


class TargetContext:
    """The per-target objects of 2N on one table, each built on first use and
    then kept, so that a report and the claim verdicts share them.

    ``midpoints`` is None below 2N = 8.
    """

    def __init__(self, t: EvenTarget, table: PrimeTable,
                 split: PrimeSplit | None = None):
        self.t = t
        self.table = table
        if split is not None:
            self.split = split

    @cached_property
    def split(self) -> PrimeSplit:
        return split_primes(self.t, self.table)

    @cached_property
    def census(self) -> PartitionCensus:
        return census(self.t, self.table)

    @cached_property
    def pairing(self) -> PairingReport:
        return pairing_report(self.t, self.split, self.table)

    @cached_property
    def midpoints(self) -> MidpointReport | None:
        if self.t.two_n < 8:
            return None
        return midpoint_report(self.t, self.split, self.table)


def _same_type(ctx: TargetContext) -> ClaimOutcome:
    """Passes by algebra on any table: ``census`` marks the odd multiples of
    the odd factors that ``factorize`` returns, each of which divides 2N, so
    a is marked iff 2N - a is, and no partition is mixed."""
    c = ctx.census
    return _single(ClaimId.SAME_TYPE_LEMMA, ctx.t.two_n, PASS,
                   {"total": c.total, "a_count": c.a_count, "b_count": c.b_count})


def verify_same_type_lemma(t: EvenTarget, table: PrimeTable) -> ClaimOutcome:
    """Pass iff no odd partition of 2N mixes an A-type with a B-type component."""
    return evaluate_claims(t, table, (ClaimId.SAME_TYPE_LEMMA,))[0]


def verify_s_bounds(t: EvenTarget, split: PrimeSplit) -> ClaimOutcome:
    """Pass iff at least two A-primes exist (targets above the 6 boundary)."""
    if t.two_n == 6:
        return _single(ClaimId.S_BOUND, 6, BOUNDARY, {"two_n": 6, "s": split.s})
    status = PASS if split.s >= 2 else FAIL
    return _single(ClaimId.S_BOUND, t.two_n, status, {"two_n": t.two_n, "s": split.s})


def prime_power_exclusion(
    t: EvenTarget, split: PrimeSplit, table: PrimeTable | None = None
) -> ClaimOutcome:
    """Pass iff no A-prime p of ``split``, which is ``split_primes(t, table)``,
    has p dividing 2N - p (no 2N = p + p**k solution).

    This holds by algebra: p divides 2N - p iff it divides 2N, which puts p
    among the B-primes, so the verdict only reports the A-primes it covers;
    ``table`` is not read.
    """
    if t.two_n == 6:
        return _single(ClaimId.PRIME_POWER_EXCLUSION, 6, BOUNDARY, {"two_n": 6})
    return _single(ClaimId.PRIME_POWER_EXCLUSION, t.two_n, PASS,
                   {"two_n": t.two_n, "a_primes_checked": split.s})


def _pairing(ctx: TargetContext) -> ClaimOutcome:
    t, report = ctx.t, ctx.pairing
    bself = self_pair(t, ctx.table)
    payload = {
        "pairs": list(report.pairs),
        "unpaired_count": len(report.unpaired),
        "b_self_pair": list(bself) if bself else None,
    }
    return _single(ClaimId.PAIRING_NON_EMPTY, t.two_n,
                   BOUNDARY if t.two_n == 6 else PASS, payload)


def claim_pairing_non_empty(
    t: EvenTarget, split: PrimeSplit, table: PrimeTable
) -> ClaimOutcome:
    """Pass iff some A-prime pair exists, or the self pair (N, N) covers 2N."""
    return evaluate_claims(t, table, (ClaimId.PAIRING_NON_EMPTY,),
                           context=TargetContext(t, table, split))[0]


def _witness(ctx: TargetContext) -> ClaimOutcome:
    two_n, pairs = ctx.t.two_n, ctx.census.goldbach_pairs
    payload: dict = {"count": len(pairs)}
    if pairs:
        p, q = pairs[0]
        payload["smallest_pair"] = [p, q]
        payload["kind"] = kind_of_prime_pair(p, q, two_n).value
    return _single(ClaimId.GOLDBACH_WITNESS, two_n, PASS, payload)


def claim_goldbach_witness(t: EvenTarget, table: PrimeTable) -> ClaimOutcome:
    """Pass iff 2N has a prime-prime partition whose smallest prime p does
    not divide 2N - p, unless 2N = p + p."""
    return evaluate_claims(t, table, (ClaimId.GOLDBACH_WITNESS,))[0]


def _midpoint_coprime(ctx: TargetContext) -> ClaimOutcome:
    """Both flankers are prime to 2N by algebra (see _chunk_midpoint_coprime)."""
    two_n = ctx.t.two_n
    if two_n == 6:
        return _single(ClaimId.MIDPOINT_COPRIME, 6, BOUNDARY, {"two_n": 6})
    report = ctx.midpoints
    return _single(ClaimId.MIDPOINT_COPRIME, two_n, PASS,
                   {"parity": report.parity,
                    "values": [v.value for v in report.values]})


def _midpoint_decomposes(ctx: TargetContext) -> ClaimOutcome:
    two_n = ctx.t.two_n
    if two_n == 6:
        return _single(ClaimId.MIDPOINT_DECOMPOSES, 6, BOUNDARY, {"two_n": 6})
    report = ctx.midpoints
    pair = report.both_prime_pair
    return _single(ClaimId.MIDPOINT_DECOMPOSES, two_n, PASS,
                   {"parity": report.parity,
                    "values": [v.value for v in report.values],
                    "both_prime_pair": list(pair) if pair else None})


def _companion(ctx: TargetContext) -> ClaimOutcome:
    """The A-primes, and the ones ``pairing_report`` pairs: those whose
    companion is marked prime, as such a companion is an A-prime too."""
    two_n = ctx.t.two_n
    if two_n == 6:
        return _single(ClaimId.COMPANION_DECOMPOSES, 6, BOUNDARY, {"two_n": 6})
    s = ctx.split.s
    return _single(ClaimId.COMPANION_DECOMPOSES, two_n, PASS,
                   {"a_primes": s, "prime_companions": s - len(ctx.pairing.unpaired)})


def evaluate_claims(
    t: EvenTarget,
    table: PrimeTable,
    claim_ids: tuple[ClaimId, ...] = ALL_CLAIMS,
    *,
    context: TargetContext | None = None,
) -> list[ClaimOutcome]:
    """All requested claim verdicts for a single target, in declaration order.

    Each verdict builds its pass or boundary payload from the objects of
    ``context``, the TargetContext of ``t`` on ``table``, built here when not
    given, so nothing is built twice.  The one-target chunk of 2N on the
    context's table, run once, decides which claims fail and with what
    counterexample, for all but s_bound, whose own verdict its kernel matches.
    """
    ctx = context or TargetContext(t, table)
    wanted = set(claim_ids)
    outs = [CLAIM_SPECS[c].verdict(ctx) for c in ALL_CLAIMS if c in wanted]
    ranged = tuple(o.claim_id for o in outs if o.claim_id is not ClaimId.S_BOUND)
    chunk = range_verify(t.two_n, t.two_n, ranged, table=ctx.table) if ranged else ()
    fails = {o.claim_id: o.payload["counterexample"] for o in chunk if o.status == FAIL}
    return [_single(o.claim_id, t.two_n, FAIL, fails[o.claim_id])
            if o.claim_id in fails else o for o in outs]


# ---------------------------------------------------------------------------
# Range verification: the screen, the bitmap square and the byte windows
# ---------------------------------------------------------------------------

_ASCII_BITS = bytes.maketrans(b"\x00\x01", b"01")

# On one core a square of the bitmap below hi costs about as much as the
# prime-window ANDs of targets whose N add up to this many times hi
# (measured from hi = 2e4 to 4.5e6, chunks of 8192 evens).
_SQUARE_COST = 2000


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


def _screened_phi(two_n: int, qs) -> int:
    """phi(2N) when ``qs`` are exactly the odd prime factors of 2N (each q
    divides 2N, and dividing out their powers leaves a power of two), else 0.

    >>> _screened_phi(30, [3, 5]), _screened_phi(30, [5]), _screened_phi(30, [3, 5, 7])
    (8, 0, 0)
    """
    m, phi = two_n, two_n >> 1
    for q in qs:
        if m % q:
            return 0
        phi = phi // q * (q - 1)
        m //= q
        while not m % q:
            m //= q
    return phi if m & (m - 1) == 0 else 0


def _pair_count_digits(bits: bytes, lo: int, hi: int) -> tuple[str, int]:
    """(digits, w): c[N - 1] for N = lo/2, ..., hi/2 in w-digit slots, c the
    square of sum(bits[i] x^i) with x^0 (the odd 1) forced to 0, so that
    r(2N) = (c[N - 1] + [N odd and marked]) / 2.  Bit i fills the i-th slot
    from the left, so the square holds c[k] in its k-th slot; no c[k]
    exceeds the marked bits, so no carry crosses a slot."""
    n = (hi >> 1) - 1  # the odds 1, 3, ..., hi - 3
    src = b"\x00" + bits[1:n]
    w = len(str(src.count(1)))
    digits = bytearray(b"0") * (w * n)
    digits[w - 1 :: w] = src.translate(_ASCII_BITS)
    dec = _lazy("_decimal")
    x = dec.Decimal(digits.decode())
    del digits
    ctx = dec.Context(prec=dec.MAX_PREC, Emax=dec.MAX_EMAX)
    sq = str(ctx.multiply(x, x))
    skip = (2 * n - 1) * w - len(sq)  # the leading zeros str() drops
    start, stop = ((lo >> 1) - 1) * w - skip, (hi >> 1) * w - skip
    return sq[max(start, 0) : max(stop, 0)].rjust(stop - start, "0"), w


def _window_rs(chunk: _ChunkContext) -> list[int]:
    """r(2N) for the chunk's evens: each target's prime window ANDed with its
    mirror, one bit per odd, read from the odds 3 to c_hi - 3.  Bit j of
    ``fwd`` is the odd 3 + 2j, of ``rev`` the odd c_hi - 3 - 2j, so
    ``rev >> (c_hi - 2N) / 2`` mirrors the window of 2N; both cover only what
    the targets' h bits reach.  A lone target reads the h bytes at each end
    of its window, one byte per odd: that skips packing the table to bits."""
    c_lo, c_hi = chunk.c_lo, chunk.c_hi
    if c_lo == c_hi:
        fwd, rev = prime_mirror(c_lo, chunk)
        return [(fwd & rev).bit_count()]
    fwd = _pack(chunk.odds(3, 2 * partition_total(c_hi) + 1))
    rev = _pack(chunk.odds(c_lo - 1 - 2 * partition_total(c_lo), c_hi - 3)[::-1])
    return [(fwd & (rev >> ((c_hi - two_n) >> 1))
             & ((1 << partition_total(two_n)) - 1)).bit_count()
            for two_n in range(c_lo, c_hi + 1, 2)]


def _a_window(two_n: int, qs, chunk: _ChunkContext) -> tuple[int, int]:
    """(A, rB) of 2N on its byte windows, the odd m at byte (m - 3) / 2,
    ``qs`` taken as its odd prime factors: A the marked odds prime to them,
    s(2N) of them on the true factors, and rB the B-type window mirrored."""
    k = (two_n >> 1) - 2
    b, rb = mirror_pair(btype_bytes(k, qs), k)
    return int.from_bytes(chunk.odds(3, two_n - 3), "little") & ~b, rb


def _companion_window(two_n: int, qs, chunk: _ChunkContext) -> tuple[int, dict | None]:
    """(A-primes, first failed check) of 2N on its byte windows (``_a_window``),
    ``qs`` taken as its odd prime factors: (1) no companion is B-type,
    (2) every listed factor divides 2N, (3) no A-prime divides its companion,
    (4) no companion has a prime factor that the table clears.

    An A-prime p divides 2N - p iff it divides 2N, and then it divides m, the
    odd part of 2N with the listed primes stripped; so (3) reports the
    smallest A-prime among the divisors of m.  (4) mirrors the window of the
    cleared primes' multiples as (1) mirrors the B-type window, and reports
    the smallest A-prime hit, with its companion's smallest cleared prime."""
    a, rb = _a_window(two_n, qs, chunk)
    count = a.bit_count()
    if not a:
        return 0, None
    if a & rb:
        p = 3 + 2 * (_low_bit(a & rb) >> 3)
        return count, {"two_n": two_n, "p": p, "companion": two_n - p,
                       "reason": "companion is B-type"}
    for q in qs:
        if two_n % q:
            return count, {"two_n": two_n, "q": q,
                           "reason": "factor route missed an odd prime factor"}
    m = two_n >> _low_bit(two_n)
    for q in qs:
        while not m % q:
            m //= q
    if m > 1:
        small = [d for d in range(3, math.isqrt(m) + 1, 2) if not m % d]
        for p in sorted({*small, *(m // d for d in small), m}):
            if a >> (4 * (p - 3)) & 1:  # byte (p - 3) / 2 of the window
                return count, {"two_n": two_n, "p": p, "companion": two_n - p,
                               "reason": "companion divisible by its own prime"}
    k = (two_n >> 1) - 2
    hit = a & mirror_pair(btype_bytes(k, chunk.cleared), k)[1]
    if hit:
        p = 3 + 2 * (_low_bit(hit) >> 3)
        q = next(q for q in chunk.cleared if not (two_n - p) % q)
        return count, {"two_n": two_n, "p": p, "companion": two_n - p, "factor": q,
                       "reason": "factor not marked prime"}
    return count, None


def _departures(table: PrimeTable, hi: int) -> tuple[int, ...]:
    """The odds up to hi - 3 where ``table`` differs from a fresh sieve."""
    got, true = table.odds(3, hi - 3), build_table(hi).odds(3, hi - 3)
    if got == true:
        return ()
    return tuple(3 + 2 * i for i in _zeros(bytes(map(eq, got, true))))


# ---------------------------------------------------------------------------
# Range verification: the chunk context
# ---------------------------------------------------------------------------


def _odd_factor_lists(c_lo: int, c_hi: int, source) -> list[list[int]]:
    """Distinct odd prime factors of every even number in [c_lo, c_hi].

    Sieve-style, one slice per odd prime power q <= c_hi / 2: the evens
    divisible by 2q sit at stride q from index (-c_lo / 2) mod q.  Each small
    prime of ``source`` (a table, chunk or sieve record) up to sqrt(c_hi) is
    appended along its stride and divides the odd parts down along the
    strides of its powers; whatever survives above 1 is a single prime factor
    larger than them: the table reaches c_hi - 7 at least, so two larger
    factors would exceed c_hi.
    """
    cof = [v // (v & -v) for v in range(c_lo, c_hi + 1, 2)]
    facs: list[list[int]] = [[] for _ in cof]
    h = c_lo >> 1
    small = source.small_primes
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


def _zeros(flags: bytes):
    """The indices of the zero bytes of ``flags``, ascending."""
    i = flags.find(0)
    while i >= 0:
        yield i
        i = flags.find(0, i + 1)


class _Factors(Record):
    """The per-target inputs that the range kernels read off the odd prime
    factors ``lists`` of the evens lo, lo + 2, ..., hi, each built from the
    lists on first read, so that a run reads only what its kernels need:

    - ``omega``: the length of each list, one byte per even, also read by
      window (``omega_at``) and bounded above (``omega_bound``);
    - ``divides``: 1 where every listed prime divides 2N, else 0;
    - ``phi``: phi(2N) where the list is exactly the odd primes of 2N, else 0
      (``_screened_phi``);
    - ``exact``: 1 where ``phi`` is nonzero, else 0.
    """

    def __init__(self, lo: int, hi: int, lists: list[list[int]]) -> None:
        set_field(self, "lo", lo)
        set_field(self, "hi", hi)
        set_field(self, "lists", lists)

    @property
    def evens(self) -> range:
        return range(self.lo, self.hi + 1, 2)

    @cached_property
    def omega(self) -> bytes:
        return bytes(map(len, self.lists))

    def omega_bound(self) -> int:
        """An upper bound on every ``omega``: here their maximum."""
        return max(self.omega)

    def omega_at(self, lo: int, hi: int) -> bytes:
        """``omega`` of the evens in [lo, hi], a window of the record's."""
        return self.omega[(lo - self.lo) >> 1 : ((hi - self.lo) >> 1) + 1]

    @cached_property
    def divides(self) -> bytes:
        return bytes(map(not_, map(mod, self.evens, map(math.prod, self.lists))))

    @cached_property
    def phi(self) -> list[int]:
        return list(map(_screened_phi, self.evens, self.lists))

    @cached_property
    def exact(self) -> bytes:
        return bytes(map(truth, self.phi))


@cache
def _plus(w: int) -> bytes:
    """The ``translate`` table that adds w to every byte, modulo 256, cut
    from the identity table: slicing is faster than building from a range."""
    ramp = _plus(0) if w else bytes(range(256))
    return ramp[w:] + ramp[:w]


@cache
def _log_adders(k: int, primes: tuple[int, ...]) -> tuple[bytes, ...]:
    """The ``_plus`` tables of w(p) = floor(k * log2(p)), found in integers as
    the exponent of the largest power of 2 up to p ** k, for the ascending
    ``primes`` up to the first whose w exceeds a byte."""
    adders = []
    for p in primes:
        w = (p**k).bit_length() - 1
        if w > 255:
            break
        adders.append(_plus(w))
    return tuple(adders)


def _add_bytes(a: bytes, b: bytes) -> bytes:
    """a + b byte by byte, for equal lengths and no sum above 255."""
    n = len(a)
    return (int.from_bytes(a, "little") + int.from_bytes(b, "little")).to_bytes(n, "little")


class _SievedFactors(_Factors):
    """The fields of ``_Factors`` for the true factor lists, read off the
    strides of the small primes up to sqrt(hi) that ``_odd_factor_lists``
    walks, without building a list.

    ``omega`` of 2N = 2 * N is the number of walked odd primes that divide N,
    each adding 1 along its stride with one ``translate``, plus 1 where N
    keeps a prime that no walk reached (a big prime).  Let r be isqrt(hi), or
    the last small prime where that is less (a halo runs a few evens past its
    table): every odd prime up to r is walked, and N holds at most one big
    prime, P >= r + 1, as two would exceed hi.  The big-prime byte comes
    from log weights, the device of the quadratic sieve (Pomerance,
    EUROCRYPT 1984), here made exact.  A second bytearray ``logs`` gains
    w(p) = floor(K * log2 p) along the stride of every power of each walked
    prime p, and K along that of every power of 2, for
    K = floor(255 / (bit_length(hi) + 1)).  So logs(N) is the weight of N's
    walked part, at most K * log2 N < K * (bit_length(hi) - 1) < 255, and no
    byte wraps.  On a window whose N run from N0 to N1:

    - if N = P * m with a big prime P, logs(N) = logs(m) <= K * log2(m) <=
      K * log2(N1 / (r + 1)), so logs(N) <= T = floor(K * log2(N1 / (r + 1)));
    - else logs(N) falls short of K * log2 N by less than 1 per odd prime
      power dividing N (one rounded weight each), and there are at most
      E = floor(log3 N1) of them, so logs(N) >= B = ceil(K * log2 N0) - E.

    Where T < B, one threshold ``translate`` (logs < B) is exactly the
    big-prime byte.  Every bound is computed in integers.  The gap B - T is
    about K * log2(hi) / 2, near 120, less E, about 0.63 * log2 hi, less
    K * log2(N1 / N0): so only windows that start at small N, the first
    halo of a range from small 2N, miss it.  Those fall back to the division
    pass ``_divide``, which divides the odd parts down along the prime-power
    strides as the lists' cofactors are, and leaves 1 or the big prime.
    ``_divide`` also builds ``phi``, which only comet reads, and reads first,
    so that a comet halo takes one pass.  A window of ``omega``
    (``omega_at``) takes a pass over that window alone until the whole is
    built, ``omega_bound`` is a primorial count that reads no stride, and
    ``lists`` are built only when read.

    ``divides`` and ``exact`` are 1 everywhere, by construction: each small
    prime is counted only on its own stride, so it divides 2N, and the
    cofactor is what is left of 2N's odd part, so it divides 2N too; the small
    primes are a fresh sieve's, every one that divides 2N is counted, and the
    cofactor is 1 or a single prime, as two factors above sqrt(hi) would
    exceed hi.  So the factors counted are exactly the odd primes of 2N.
    """

    def __init__(self, lo: int, hi: int, small_primes: tuple[int, ...]) -> None:
        set_field(self, "lo", lo)
        set_field(self, "hi", hi)
        set_field(self, "small_primes", small_primes)
        ones = b"\x01" * ((hi - lo) // 2 + 1)
        set_field(self, "divides", ones)
        set_field(self, "exact", ones)

    @cached_property
    def lists(self) -> list[list[int]]:
        return _odd_factor_lists(self.lo, self.hi, self)

    @cached_property
    def omega(self) -> bytes:
        return self.omega_at(self.lo, self.hi)

    @cached_property
    def phi(self) -> list[int]:
        omega, phi = self._divide(self.lo, self.hi)
        set_field(self, "omega", omega)
        return phi

    def omega_bound(self) -> int:
        """The largest k with 2 * 3 * 5 * ... * p_k <= hi, p_k the k-th odd
        prime: an even with k distinct odd primes is at least that product,
        so no even up to hi has more.  Read off no sieve."""
        k, product, m = 0, 2, 3
        while True:
            if math.gcd(m, product) == 1:  # product holds every prime below m
                if product * m > self.hi:
                    return k
                product *= m
                k += 1
            m += 2

    def omega_at(self, lo: int, hi: int) -> bytes:
        """``omega`` of the evens in [lo, hi]: a window of ``omega`` once it
        is built, else the log pass over that window alone, or the division
        pass where the log bounds do not separate."""
        if "omega" in self.__dict__:
            return super().omega_at(lo, hi)
        omega = self._log_omega(lo, hi)
        return self._divide(lo, hi)[0] if omega is None else omega

    def _log_omega(self, lo: int, hi: int) -> bytes | None:
        """``omega`` of the evens in [lo, hi] by log weights, or None where
        the class docstring's bounds leave no gap."""
        small = self.small_primes
        h, n = lo >> 1, (hi - lo) // 2 + 1
        top = h + n - 1  # N1
        r = min(math.isqrt(hi), small[-1])
        k = 255 // (hi.bit_length() + 1)
        t = (top**k // (r + 1) ** k).bit_length() - 1  # T
        e, power = 0, 3
        while power <= top:  # E = floor(log3 N1)
            e, power = e + 1, power * 3
        b = (h**k - 1).bit_length() - e  # B: no N free of big primes weighs less
        if t >= b:
            return None
        omega, logs = bytearray(n), bytearray(n)
        q, s, plus = 2, -h % 2, _plus(k)
        while s < n:  # the powers of 2
            logs[s::q] = logs[s::q].translate(plus)
            q <<= 1
            s = -h % q
        one, end = _plus(1), bisect_right(small, r)
        for p, plus in zip(small[1:end], _log_adders(k, small)[1:end]):
            s = -h % p  # index of the first multiple of p; none when s >= n
            if s >= n:
                continue
            omega[s::p] = omega[s::p].translate(one)
            q = p
            while s < n:  # q <= N1 holds while a multiple of q is in the window
                logs[s::q] = logs[s::q].translate(plus)
                q *= p
                s = -h % q
        big = logs.translate(b"\x01" * b + b"\x00" * (256 - b))  # 1 below B
        return _add_bytes(omega, big)

    def _divide(self, lo: int, hi: int) -> tuple[bytes, list[int]]:
        """(omega, phi(2N)) of every even in [lo, hi], a window of the
        record's, in one pass over the strides."""
        small = self.small_primes
        h = lo >> 1
        cof = [v // (v & -v) for v in range(lo, hi + 1, 2)]
        n = len(cof)
        omega = bytearray(n)
        phi = list(range(h, h + n))  # N = phi(2N) / prod(1 - 1/p)
        one = _plus(1)
        for p in small[1 : bisect_right(small, math.isqrt(hi))]:
            s = -h % p  # index of the first multiple of p; none when s >= n
            if s >= n:
                continue
            omega[s::p] = omega[s::p].translate(one)
            phi[s::p] = map(mul, map(floordiv, phi[s::p], repeat(p)), repeat(p - 1))
            q = p
            while s < n:  # q <= hi / 2 holds while a multiple of q is in the window
                cof[s::q] = map(floordiv, cof[s::q], repeat(p))
                q *= p
                s = -h % q
        big = bytes(map(gt, cof, repeat(1)))  # 1 where a prime above sqrt(hi) is left
        # phi(cofactor) = cofactor - 1 for a prime, 1 for 1
        phi = list(map(mul, map(floordiv, phi, cof), map(sub, cof, big)))
        return _add_bytes(omega, big), phi


def _factor_sieve(lo: int, hi: int, source) -> _Factors:
    """The fused chunk sieve: the ``_Factors`` of the evens in [lo, hi] on the
    small primes of ``source``, read off the strides (``_SievedFactors``)."""
    return _SievedFactors(lo, hi, source.small_primes)


class _ChunkContext(Record):
    """The kernel inputs of the evens in [c_lo, c_hi], each built on first use
    and then kept, so that every kernel run on the chunk shares them.  The
    fused sieve runs 2 evens past each end, where the midpoint flankers'
    doubles sit.  ``pi`` is pi(c_lo - 3), carried in; ``departures`` where
    the table differs from a fresh sieve, empty unless a run's kernels read
    them; ``digits`` the chunk's slots of the bitmap square (comet).
    Kernels see ``table`` only through the next two members."""

    def __init__(self, c_lo: int, c_hi: int, pi: int, departures: tuple[int, ...],
                 digits: str | None, table: PrimeTable) -> None:
        set_field(self, "c_lo", c_lo)
        set_field(self, "c_hi", c_hi)
        set_field(self, "pi", pi)
        set_field(self, "departures", departures)
        set_field(self, "digits", digits)
        set_field(self, "table", table)

    def odds(self, lo: int, hi: int) -> bytes:
        return self.table.odds(lo, hi)

    @property
    def small_primes(self) -> tuple[int, ...]:
        return self.table.small_primes

    @property
    def evens(self) -> range:
        return range(self.c_lo, self.c_hi + 1, 2)

    @cached_property
    def cleared(self) -> tuple[int, ...]:
        """The departures up to c_hi - 3 left unmarked: the primes cleared."""
        return tuple(d for d in self.departures
                     if d <= self.c_hi - 3 and not self.odds(d, d)[0])

    @cached_property
    def halo(self) -> _Factors:
        """The fused sieve's inputs of the evens from c_lo - 4 to c_hi + 4."""
        return _factor_sieve(self.c_lo - 4, self.c_hi + 4, self)

    @cached_property
    def facs(self) -> list[list[int]]:
        """The targets' factor lists, read only by the targets that take a
        byte window."""
        return self.halo.lists[2:-2]

    @cached_property
    def steps(self) -> bytes:  # bit i steps pi(2N - 3) from target i to i + 1
        return self.odds(self.c_lo - 1, self.c_hi - 3)

    @cached_property
    def s(self) -> list[int]:
        """s(2N) = pi(2N - 3) - omega_odd(2N) for every target, pi counted on
        from the carried pi."""
        pis = accumulate(self.steps, initial=self.pi)
        return list(map(sub, pis, self.halo.omega[2:-2]))

    @cached_property
    def phis(self) -> list[int]:
        """phi(2N) where the target's factors are exactly its odd primes, else 0."""
        return self.halo.phi[2:-2]

    @cached_property
    def scan(self) -> dict:
        return _chunk_pair_scan(self)


# ---------------------------------------------------------------------------
# Range verification: chunk kernels
# ---------------------------------------------------------------------------


def _chunk_same_type(chunk: _ChunkContext) -> dict:
    """Mixed partitions of the chunk's evens.  A target whose factors all
    divide 2N (``divides``) has none: a is a multiple of a listed q iff
    2N - a is, so its B-type window is its own mirror.  Any other target
    compares that window with the mirror."""
    mixed_total = 0
    fail = None
    for i in _zeros(chunk.halo.divides[2:-2]):
        two_n = chunk.c_lo + 2 * i
        qs = chunk.facs[i]
        count, first = mixed_partitions(two_n, btype_bytes((two_n >> 1) - 2, qs))
        mixed_total += count
        if first and fail is None:
            fail = {"two_n": two_n, "partition": list(first)}
    return {"mixed_total": mixed_total, "fail": fail, "boundary": []}


def _chunk_s_bound(chunk: _ChunkContext) -> dict:
    """The first minimum, maximum and s < 2 of s(2N) in target order.

    s = pi - omega, where pi = pi(2N - 3) rises by 0 or 1 from one target to
    the next, and omega lies in [0, W] for the halo's ``omega_bound`` W: an
    even 2N <= hi with k distinct odd primes is at least 2 * 3 * 5 * ... *
    p_k, so W is the largest k whose product stays within hi (a record
    built from lists gives their maximum instead).  So every s at or below
    the first target's, and every s < 2 once the first is not, sits where
    pi <= pi_first + W: a prefix that ends before the (W + 1)-th marked
    bit.  Every s at or above the last target's sits where pi >= pi_last -
    W: a suffix that starts after the (W + 1)-th marked bit from the end.
    A larger W only lengthens the two ends, so any bound at or above the
    true maximum gives the same first minimum, maximum and failure.  s, and
    so omega, is evaluated on those two ends only, each tens of targets.

    s(2N) counts the marked odds prime to 2N, which is pi - omega only on a
    table without departures; on one with some, every target's s is read
    off its A-window (``_a_window``), and no cut is made.
    """
    c_lo, pi, bits, halo = chunk.c_lo, chunk.pi, chunk.steps, chunk.halo

    def s_of(a: int, b: int) -> list[int]:
        """s of the targets [a, b) from c_lo."""
        if chunk.departures:
            i = (c_lo - chunk.c_lo) >> 1
            return [_a_window(c_lo + 2 * j, chunk.facs[i + j], chunk)[0].bit_count()
                    for j in range(a, b)]
        pi_a = pi + bits.count(1, 0, a)
        omega = halo.omega_at(c_lo + 2 * a, c_lo + 2 * b - 2)
        return list(map(sub, accumulate(bits[a : b - 1], initial=pi_a), omega))

    boundary = []  # bit i of ``bits`` steps pi from target i to target i + 1
    if c_lo == 6:  # s_of reads c_lo, pi and bits when called: 6 before they move
        boundary.append({"two_n": 6, "s": s_of(0, 1)[0]})
        c_lo, pi, bits = 8, pi + bits[:1].count(1), bits[1:]
    n = (chunk.c_hi - c_lo) // 2 + 1
    out = {"fail": None, "boundary": boundary, "min_s": None, "max_s": None}
    if not n:
        return out

    w = halo.omega_bound()
    j = -1
    for _ in range(w + 1):
        j = bits.find(1, j + 1, n - 1)
        if j < 0:
            j = n - 1
            break
    last, j = j, n - 1  # the head's last target
    for _ in range(w + 1):
        j = bits.rfind(1, 0, j)
        if j < 0:
            break
    first = j + 1  # the tail's first target
    if chunk.departures or first <= last + 1:  # the whole chunk serves as both
        head = tail = s_of(0, n)
        first = 0
    else:
        head, tail = s_of(0, last + 1), s_of(first, n)
    lo, hi = min(head), max(tail)
    out["min_s"] = [lo, c_lo + 2 * head.index(lo)]
    out["max_s"] = [hi, c_lo + 2 * (first + tail.index(hi))]
    if lo < 2:
        i = next(i for i, s in enumerate(head) if s < 2)
        out["fail"] = {"two_n": c_lo + 2 * i, "s": head[i]}
    return out


def _chunk_companions(chunk: _ChunkContext) -> dict:
    """Companion checks for the chunk's evens.

    On a table without departures a target whose factors are exactly its
    odd primes (``exact``) cannot fail: they are each marked, so its A-primes
    are s(2N) = pi(2N - 3) - omega_odd(2N).  When every target is such, as on
    the fused sieve, the chunk's count is a difference of two sums, with no
    per-target value: sum(pi) from the carried pi and the steps between
    targets, and sum(omega) over the chunk's bytes.  Otherwise (doctored
    lists, or departures) every target takes ``_companion_window`` on its
    factor list in ascending order, which counts s on such a target too.
    """
    c_lo, halo = chunk.c_lo, chunk.halo
    boundary = [{"two_n": 6}] if c_lo == 6 else []
    if not chunk.departures and 0 not in halo.exact[2:-2]:
        n, pi, omega = len(chunk.evens), chunk.pi, halo.omega[2:-2]
        # pi(2N - 3) of target i is pi plus the steps j < i, so step j is
        # counted by the n - 1 - j targets after it
        a_total = (n * pi + sum(compress(range(n - 1, 0, -1), chunk.steps))
                   - sum(omega))
        if c_lo == 6:
            a_total -= pi - omega[0]
        return {"fail": None, "boundary": boundary, "a_primes_checked": a_total}
    a_total, fail = 0, None
    for two_n, qs in zip(chunk.evens, chunk.facs):
        if two_n != 6:
            count, detail = _companion_window(two_n, qs, chunk)
            a_total += count
            fail = fail or detail
    return {"fail": fail, "boundary": boundary, "a_primes_checked": a_total}


def _chunk_pair_scan(chunk: _ChunkContext) -> dict:
    """Smallest-prime Goldbach scan shared by the witness and pairing claims,
    over all targets of the chunk at once.

    Bit i of ``left`` stands for the target c_lo + 2i whose smallest prime p
    with 2N - p marked prime is still unknown.  The scan walks the marked odds
    up to c_hi / 2 in ascending blocks (P / 2, P], P = 64, 128, ...;
    for each p the targets with 2N - p marked prime are one shifted window
    of the block's odds c_lo - P + 1 to c_hi - 3, packed once per block, and
    a window hit resolves its targets.
    The hits on the stride of the multiples of p have p | 2N, so p divides
    the partner 2N - p too.  On a true table that partner is marked only
    when it is p itself: no marked partner shares a prime with 2N unless
    2N = p + p.  Any other such hit is a pair that the table marks wrongly,
    so the witness claim fails on it rather than count it.
    """
    c_lo, c_hi = chunk.c_lo, chunk.c_hi
    h = c_lo >> 1
    nev = (c_hi - c_lo) // 2 + 1
    left = (1 << nev) - 1
    b_self_evens = 0
    divisible = None  # (bit, p) of the first divisible partner marked prime
    last = None  # (p, hit) of the last prime with hits
    p_lo, span = 3, 64
    while left and p_lo <= c_hi >> 1:
        first = max(1, c_lo - span + 1)  # the window's first odd
        packed = _pack(chunk.odds(first, c_hi - 3))
        top = min(span, c_hi >> 1)
        for p in compress(range(p_lo | 1, top + 1, 2), chunk.odds(p_lo, top)):
            shift = (c_lo - p - first) >> 1  # bit 0 of the window: c_lo - p
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
            if not left:
                break
        p_lo, span = span + 1, span << 1
    a_pair_evens = nev - left.bit_count() - b_self_evens
    witness_fail = pairing_fail = None
    if left:
        witness_fail = {"two_n": c_lo + 2 * _low_bit(left), "count": 0}
    if divisible and (not left or divisible[0] < _low_bit(left)):
        witness_fail = {"two_n": c_lo + 2 * divisible[0], "p": divisible[1],
                        "reason": "divisible partner reported prime"}
    pairing_boundary = []
    if c_lo == 6:  # the boundary target 2N = 6 = 3 + 3 never fails pairing
        pairing_boundary.append({"two_n": 6, "pair": None if left & 1 else [3, 3]})
        left &= ~1
    if left:
        pairing_fail = {"two_n": c_lo + 2 * _low_bit(left), "count": 0}
    max_min_p = None
    if last:
        max_min_p = [last[0], c_lo + 2 * _low_bit(last[1])]
    return {"witness": {"fail": witness_fail, "boundary": [],
                        "a_pair_evens": a_pair_evens,
                        "b_self_evens": b_self_evens,
                        "max_min_p": max_min_p},
            "pairing": {"fail": pairing_fail, "boundary": pairing_boundary,
                        "a_pair_evens": a_pair_evens,
                        "b_self_evens": b_self_evens}}


def _chunk_witness(chunk: _ChunkContext) -> dict:
    return chunk.scan["witness"]


def _chunk_pairing(chunk: _ChunkContext) -> dict:
    return chunk.scan["pairing"]


def _chunk_midpoint_coprime(chunk: _ChunkContext) -> dict:
    """Evens from 8 on hold the claim by algebra, and 6 is a boundary case.

    For even N the flankers N -+ 1 are odd and coprime to N; for odd N the
    flankers N -+ 2 are odd and gcd(N -+ 2, N) = gcd(2, N) = 1.  Either way
    both flankers are prime to 2N, whatever the table or the factor lists say:

    >>> all(math.gcd(v, 2 * n) == 1
    ...     for n in range(4, 20_000) for v in midpoint_values(2 * n))
    True
    """
    return {"fail": None, "boundary": [{"two_n": 6}] if chunk.c_lo == 6 else []}


def _chunk_midpoint_decomposes(chunk: _ChunkContext) -> dict:
    """Check that the midpoint flankers of each even in [c_lo, c_hi] factor
    over its A-primes.

    The halo holds the fused sieve's inputs of the evens in
    [c_lo - 4, c_hi + 4], 2 evens past each end of the chunk.  A flanker v of
    2N has 2v = 2N -+ 2 or 2N -+ 4, so its factors sit at index
    (2v - c_lo + 4) >> 1.  A factor of v that divides v is prime to 2N, as it
    would else divide 2 or 4; so only a flanker whose factors do not all
    divide 2v (``divides``), a wrong list, can fail, and only its four
    targets 2v -+ 2 and 2v -+ 4 are checked, on its factor list, in
    ascending order.  A flanker marked prime is prime to 2N, so it is its own
    A-prime.  A flanker with a factor that the table clears is no product of
    A-primes: where the table clears any prime, every target is checked.
    The targets with two flankers marked prime are counted off the bitmap:
    N -+ 1 for even N, N -+ 2 for odd N, one byte apart per step of 4.
    """
    c_lo, c_hi, halo, cleared = chunk.c_lo, chunk.c_hi, chunk.halo, chunk.cleared
    first = max(c_lo, 8)
    vb = ((first >> 1) - 2) | 1
    vs = range(vb, (((c_hi >> 1) + 1) | 1) + 1, 2)  # every flanker in the chunk
    bits = chunk.odds(vb, vs[-1])  # byte j: the flanker vb + 2j
    at = vb - (c_lo >> 1) + 2  # the halo index of 2 * vb
    divides = halo.divides[at : at + 2 * len(vs) : 2]
    todo = {2 * vs[j] + d for j in _zeros(divides) for d in (-4, -2, 2, 4)}
    if cleared:  # a flanker of any target may have a factor the table clears
        todo = range(first, c_hi + 1, 2)
    fail = None
    for two_n in sorted(t for t in todo if first <= t <= c_hi):
        for v in midpoint_values(two_n):
            # lists ascend, so shared[0] is the smallest shared prime
            shared = [q for q in halo.lists[(2 * v - c_lo + 4) >> 1] if two_n % q == 0]
            if shared and not bits[(v - vb) >> 1]:
                fail = {"two_n": two_n, "value": v, "shared_prime": shared[0]}
                break
            q = next((q for q in cleared if not v % q), None)
            if q is not None:
                fail = {"two_n": two_n, "value": v, "factor": q,
                        "reason": "factor not marked prime"}
                break
        if fail is not None:
            break
    both_prime = 0
    f = first >> 1
    for step, n in ((1, f + (f & 1)), (2, f | 1)):  # the smallest even, odd N
        # the flankers N - step and N + step of k targets sit at bytes i, i + step
        i, k = (n - step - vb) >> 1, len(range(n, (c_hi >> 1) + 1, 2))
        lower, upper = (int.from_bytes(bits[j : j + k], "little") for j in (i, i + step))
        both_prime += (lower & upper).bit_count()
    return {"fail": fail, "boundary": [{"two_n": 6}] if c_lo == 6 else [],
            "both_prime_pairs": both_prime}


def _chunk_prime_power(chunk: _ChunkContext) -> dict:
    """Count every 2N = p + p**k identity in the chunk.  Its prime p divides
    p + p**k = 2N, so it is B-type and never an A-prime: the claim holds by
    algebra, and the route only counts the identities it covers."""
    c_lo, c_hi = chunk.c_lo, chunk.c_hi
    first = max(c_lo, 8)
    # k = 1: 2N = N + N for every odd N marked prime, N from first / 2 to c_hi / 2
    inspected = chunk.odds(first >> 1, c_hi >> 1).count(1)
    for p in chunk.small_primes[1 : bisect_right(chunk.small_primes, math.isqrt(c_hi))]:
        v = p * p
        while p + v <= c_hi:
            inspected += c_lo <= p + v
            v *= p
    return {"fail": None, "boundary": [{"two_n": 6}] if c_lo == 6 else [],
            "identities_inspected": inspected}


def _chunk_comet(chunk: _ChunkContext) -> list[tuple[int, int, int, int, int]]:
    """Rows (two_n, r, s, a_count, b_count) for every even in the chunk, r
    from the chunk's slots of the bitmap square or else from each target's
    prime window.

    A target whose factors are exactly its odd primes (phi(2N) > 0) has its
    phi(2N) odds prime to 2N in mirrored pairs (a, 2N - a), a != N, and none
    is mixed: a_count is those pairs less (1, 2N - 1), b_count h - a_count.
    Any other target mirrors the B-type window of its factor list once and
    keeps its r, which reads only the table.  phi is read first, so that the
    fused sieve builds it in the pass that builds omega, s's input.
    """
    c_lo, c_hi, digits = chunk.c_lo, chunk.c_hi, chunk.digits
    phis = chunk.phis
    if digits is None:
        rs = _window_rs(chunk)
    else:
        import re  # loaded by the CLI already; not at package import
        w = len(digits) // len(phis)
        odd_n = bytearray(len(phis))  # [N odd and marked], from the first odd N on
        odd_n[1 - (c_lo >> 1) % 2 :: 2] = chunk.odds(c_lo >> 1, c_hi >> 1)
        slots = map(int, re.findall(f".{{{w}}}", digits))
        rs = list(map(rshift, map(add, slots, odd_n), repeat(1)))
    a_counts = list(map(sub, map(rshift, phis, repeat(1)), repeat(1)))
    hs = map(floordiv, range(c_lo - 2, c_hi - 1, 2), repeat(4))  # h(2N) = (2N - 2) // 4
    rows = list(zip(chunk.evens, rs, chunk.s, a_counts, map(sub, hs, a_counts)))
    for i in _zeros(chunk.halo.exact[2:-2]):
        two_n, r, s = rows[i][:3]
        h = partition_total(two_n)
        fwd, rev = mirror_pair(btype_bytes((two_n >> 1) - 2, chunk.facs[i]), h)
        rows[i] = two_n, r, s, h - (fwd | rev).bit_count(), (fwd & rev).bit_count()
    return rows


# ---------------------------------------------------------------------------
# Range verification: orchestration
# ---------------------------------------------------------------------------

_WORKER_TABLE: PrimeTable | None = None


def _worker_init(table: PrimeTable) -> None:
    global _WORKER_TABLE
    _WORKER_TABLE = table


def _evaluate_chunk(kernels, c_lo, c_hi, pi, departures, digits, table) -> list:
    """Every kernel's result for the evens in [c_lo, c_hi], on one context,
    run last to first: companions builds the whole omega that s_bound slices."""
    chunk = _ChunkContext(c_lo, c_hi, pi, departures, digits, table)
    return [kernel(chunk) for kernel in reversed(kernels)][::-1]


def _pooled(job):
    """Evaluate one chunk job in a pool worker, on the table the pool handed it."""
    return _evaluate_chunk(*job, _WORKER_TABLE)


class ClaimSpec(Record):
    """One claim: its single-target verdict, its partial over one chunk and
    its short CLI names (the full name is its ``ClaimId`` value)."""

    def __init__(self, verdict: Callable[[TargetContext], ClaimOutcome],
                 kernel: Callable[[_ChunkContext], dict],
                 aliases: tuple[str, ...] = ()) -> None:
        set_field(self, "verdict", verdict)
        set_field(self, "kernel", kernel)
        set_field(self, "aliases", aliases)


def _s_bound(ctx: TargetContext) -> ClaimOutcome:
    return verify_s_bounds(ctx.t, ctx.split)


def _prime_power(ctx: TargetContext) -> ClaimOutcome:
    return prime_power_exclusion(ctx.t, ctx.split)


CLAIM_SPECS: dict[ClaimId, ClaimSpec] = {
    ClaimId.SAME_TYPE_LEMMA: ClaimSpec(_same_type, _chunk_same_type, ("sametype",)),
    ClaimId.S_BOUND: ClaimSpec(_s_bound, _chunk_s_bound, ("sbounds",)),
    ClaimId.PRIME_POWER_EXCLUSION: ClaimSpec(
        _prime_power, _chunk_prime_power, ("primepower",)),
    ClaimId.MIDPOINT_COPRIME: ClaimSpec(_midpoint_coprime, _chunk_midpoint_coprime),
    ClaimId.MIDPOINT_DECOMPOSES: ClaimSpec(
        _midpoint_decomposes, _chunk_midpoint_decomposes),
    ClaimId.PAIRING_NON_EMPTY: ClaimSpec(_pairing, _chunk_pairing, ("pairing",)),
    ClaimId.GOLDBACH_WITNESS: ClaimSpec(
        _witness, _chunk_witness, ("witness", "goldbach")),
    ClaimId.COMPANION_DECOMPOSES: ClaimSpec(
        _companion, _chunk_companions, ("companions", "companion")),
}


def _chunk_ranges(lo: int, hi: int, chunk_evens: int, table: PrimeTable
                  ) -> list[tuple[int, int, int]]:
    """(c_lo, c_hi, pi(c_lo - 3)) per chunk: one prime count below lo, then
    each chunk's own span, the last one's (which nothing reads) to hi - 3."""
    span = 2 * chunk_evens
    pi = table.count(3, lo - 3)  # odd primes only
    chunks = []
    for c in range(lo, hi + 1, span):
        chunks.append((c, min(c + span - 2, hi), pi))
        pi += table.count(c - 1, min(c + span, hi) - 3)
    return chunks


# Chunks each pool worker must get before a run pools: a fresh worker's
# first chunk costs more than a chunk in process (measured at 2, 3, 4 and 6
# chunks of 8192 evens with 2 workers).
_POOL_MIN_CHUNKS = 2


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _map_chunks(jobs: list[tuple], workers: int, table: PrimeTable) -> list:
    """_evaluate_chunk(*job, table) for each job in order, pooled when it pays.

    Runs too short to give 2 workers ``_POOL_MIN_CHUNKS`` chunks each stay
    in process, and a pool never outnumbers the usable CPUs.  Only pool
    workers keep the table in a global; the in-process path hands it over
    directly, so nothing keeps it alive after the run."""
    processes = min(workers, len(jobs) // _POOL_MIN_CHUNKS, _usable_cpus())
    if processes < 2:
        return [_evaluate_chunk(*job, table) for job in jobs]
    with _lazy("multiprocessing").Pool(processes, _worker_init, (table,)) as pool:
        return pool.map(_pooled, jobs, chunksize=1)


def _range_table(lo: int, hi: int, workers: int, chunk_evens: int,
                 table: PrimeTable | None) -> PrimeTable:
    """The table a range run reads, after checking its arguments."""
    if lo % 2 or hi % 2:
        raise UsageError(f"range bounds must be even, got [{lo}, {hi}]")
    if not 6 <= lo <= hi:
        raise UsageError(f"need 6 <= lo <= hi, got [{lo}, {hi}]")
    if workers < 1:
        raise UsageError(f"workers must be >= 1, got {workers}")
    if chunk_evens < 1:
        raise UsageError(f"chunk_evens must be >= 1, got {chunk_evens}")
    if table is None:
        return build_table(hi + 1)
    window_end(hi, table)
    return table


# Partial fields holding a [value, two_n] extreme: its payload key and value
# name, and its pick over chunks (on a tie min and max keep the earliest).
_EXTREMES = {
    "min_s": ("min_s", "s", min),
    "max_s": ("max_s", "s", max),
    "max_min_p": ("max_smallest_prime", "p", max),
}


def _merge_partials(claim_id: ClaimId, partials: list[dict], lo: int, hi: int
                    ) -> ClaimOutcome:
    """One claim's outcome from its chunk partials in ascending order:
    counters add up, the first failure wins and boundary cases concatenate.
    Every even of the range not a boundary case is checked."""
    fail = next((p["fail"] for p in partials if p["fail"] is not None), None)
    boundary = [case for p in partials for case in p["boundary"]]
    payload: dict = {"evens_checked": (hi - lo) // 2 + 1 - len(boundary)}
    for key, value in partials[0].items():
        if key in _EXTREMES:
            name, field, pick = _EXTREMES[key]
            found = [p[key] for p in partials if p[key] is not None]
            if found:
                best, two_n = pick(found, key=itemgetter(0))
                payload[name] = {field: best, "two_n": two_n}
        elif isinstance(value, int):
            payload[key] = sum(p[key] for p in partials)
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
    given = table is not None
    table = _range_table(lo, hi, workers, chunk_evens, table)
    selected = tuple(c for c in ALL_CLAIMS if c in set(claims))
    kernels = tuple(CLAIM_SPECS[c].kernel for c in selected)
    # only these kernels read departures, and a table sieved here has none
    reads = {ClaimId.S_BOUND, ClaimId.MIDPOINT_DECOMPOSES, ClaimId.COMPANION_DECOMPOSES}
    departures = _departures(table, hi) if given and reads & set(selected) else ()
    jobs = [(kernels, *chunk, departures, None)
            for chunk in _chunk_ranges(lo, hi, chunk_evens, table)]
    partials = _map_chunks(jobs, workers, table)
    return [_merge_partials(cid, [p[i] for p in partials], lo, hi)
            for i, cid in enumerate(selected)]


def comet_rows(
    lo: int,
    hi: int,
    workers: int = 1,
    table: PrimeTable | None = None,
    chunk_evens: int = DEFAULT_CHUNK_EVENS,
) -> list[tuple[int, int, int, int, int]]:
    """(two_n, r, s, a_count, b_count) for every even in [lo, hi], ascending;
    r from one square of the bitmap when that costs less than the windows."""
    table = _range_table(lo, hi, workers, chunk_evens, table)
    chunks = _chunk_ranges(lo, hi, chunk_evens, table)
    slots = [None] * len(chunks)
    sum_n = ((hi - lo) // 2 + 1) * (lo + hi) // 4
    if sum_n > _SQUARE_COST * hi and _lazy("_decimal") is not None:
        digits, w = _pair_count_digits(table.odds(0, hi - 3), lo, hi)
        slots = [digits[(c_lo - lo) // 2 * w : (c_hi - lo + 2) // 2 * w]
                 for c_lo, c_hi, _ in chunks]
        del digits
    jobs = [((_chunk_comet,), *chunk, (), digits)
            for chunk, digits in zip(chunks, slots)]
    return [row for (rows,) in _map_chunks(jobs, workers, table) for row in rows]
