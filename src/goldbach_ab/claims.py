"""One verifier per structural claim about an even target, plus range runs.

Single-target verifiers follow the definitions (enumerate the A-primes,
factor every companion over them, and so on), reading the per-target objects
from one TargetContext, which builds each of them at most once.  Range
verification re-derives the same verdicts from window arithmetic that is
feasible for millions of targets: a running prime count, and a per-chunk
distinct-factor sieve that also factors the midpoint flankers, so no range
route trial-divides.

The same-type, companion and comet routes screen each target's factor
list.  When every listed factor divides 2N, the B-type window is its own
mirror and no partition is mixed; same-type needs no more.  When the list is
exactly the odd primes of 2N, gcd(a, 2N) = gcd(2N - a, 2N) also gives
a_count = phi(2N) / 2 - 1, and the A-primes are pi(2N - 3) less the listed
factors marked prime while the table marks no composite (one fresh sieve per
run checks).  Other targets take the byte windows of ``classify``.  r(2N) comes
from one square of the bitmap polynomial in C ``decimal`` (Kronecker
substitution, number-theoretic transform) where a work estimate says the
targets' prime windows cost more, else from the windows.

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
chunk jobs that verify and comet share.  Chunk partials merge field by
field, with no knowledge of the claim, so adding a claim takes one
``ClaimId`` member and one ``ClaimSpec``.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_left, bisect_right
from collections.abc import Callable
from enum import Enum
from functools import cached_property
from itertools import accumulate, chain, compress, repeat
from operator import floordiv, itemgetter, mod, not_, rshift, sub, truth

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
    self_pair,
)
from .sieve import PrimeTable, build_table, factorize, pi_upto


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
    listed factor q has q * q > m or none is listed.
    """
    two_n = t.two_n
    window_end(two_n, table)
    bits = table.odd_bits
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
        facs.sort()  # a doctored table can yield them out of order
        for q, _ in facs:
            if q not in a_set:  # the smallest factor that is no A-prime
                raise CounterexampleFound(
                    f"companion {c} of A-prime {p} is not A-type",
                    {"two_n": two_n, "p": p, "companion": c, "shared_prime": q})
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

    Each companion must be A-type, so that it decomposes over the A-basis,
    or CounterexampleFound is raised with its smallest factor that is no
    A-prime.  An A-prime p never divides 2N, so it never divides its
    companion 2N - p either.  The records are built from the rows of one
    factor walk (``_companion_rows``), which analyze reads without them.
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

    A prime-marked companion c of an A-prime p that shares a factor with 2N
    (c = 3 of p = 27 at 2N = 30, with 27 marked prime) raises
    CounterexampleFound.  Any other one is prime to 2N, so it is itself an
    A-prime whose companion is p; and c != p, since p = N would divide 2N.
    So every A-prime lands in exactly one pair or in unpaired.
    """
    pairs = []
    unpaired = []
    for p in split.a_primes:
        c = t.two_n - p
        if table.odd_bits[c >> 1]:
            if math.gcd(c, t.two_n) != 1:
                raise CounterexampleFound(
                    f"prime companion {c} of A-prime {p} shares a factor with "
                    f"{t.two_n}",
                    {"two_n": t.two_n, "p": p, "companion": c},
                )
            if p < c:
                pairs.append((p, c))
        else:
            unpaired.append(p)
    return PairingReport(pairs=tuple(pairs), unpaired=tuple(unpaired))


class MidpointValue(Record):
    """``exps`` is None when the value failed to decompose over the A-basis,
    which the claim layer reports as a counterexample."""

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
    vals = []
    for v in (v1, v2):
        try:
            exps = decompose_over_a_basis(v, split, table)
        except NotAPureAProduct:
            exps = None
        vals.append(
            MidpointValue(value=v, is_prime=bool(table.odd_bits[v >> 1]), exps=exps)
        )
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

    ``companion_rows`` and ``pairing`` hold the CounterexampleFound their
    builder raised, if any; ``midpoints`` is None below 2N = 8.
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
    def companion_rows(self) -> list[tuple] | CounterexampleFound:
        try:
            return _companion_rows(self.t, self.split, self.table)
        except CounterexampleFound as exc:
            return exc

    @cached_property
    def pairing(self) -> PairingReport | CounterexampleFound:
        try:
            return pairing_report(self.t, self.split, self.table)
        except CounterexampleFound as exc:
            return exc

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
    return _same_type(TargetContext(t, table))


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
    if isinstance(report, CounterexampleFound):
        return _single(ClaimId.PAIRING_NON_EMPTY, t.two_n, FAIL, report.witness)
    bself = self_pair(t, ctx.table)
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


def claim_pairing_non_empty(
    t: EvenTarget, split: PrimeSplit, table: PrimeTable
) -> ClaimOutcome:
    """Pass iff some A-prime pair exists, or the self pair (N, N) covers 2N;
    a pairing report that breaks fails with its witness."""
    return _pairing(TargetContext(t, table, split))


def _witness(ctx: TargetContext) -> ClaimOutcome:
    two_n, pairs = ctx.t.two_n, ctx.census.goldbach_pairs
    if pairs:
        p, q = pairs[0]
        payload = {
            "count": len(pairs),
            "smallest_pair": [p, q],
            "kind": kind_of_prime_pair(p, q, two_n).value,
        }
        return _single(ClaimId.GOLDBACH_WITNESS, two_n, PASS, payload)
    return _single(ClaimId.GOLDBACH_WITNESS, two_n, FAIL, {"two_n": two_n, "count": 0})


def claim_goldbach_witness(t: EvenTarget, table: PrimeTable) -> ClaimOutcome:
    """Pass iff 2N has at least one prime-prime partition."""
    return _witness(TargetContext(t, table))


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
    bad = [v.value for v in report.values if v.exps is None]
    if bad:
        return _single(ClaimId.MIDPOINT_DECOMPOSES, two_n, FAIL,
                       {"two_n": two_n, "not_decomposable": bad})
    pair = report.both_prime_pair
    return _single(ClaimId.MIDPOINT_DECOMPOSES, two_n, PASS,
                   {"parity": report.parity,
                    "values": [v.value for v in report.values],
                    "both_prime_pair": list(pair) if pair else None})


def _companion(ctx: TargetContext) -> ClaimOutcome:
    two_n = ctx.t.two_n
    if two_n == 6:
        return _single(ClaimId.COMPANION_DECOMPOSES, 6, BOUNDARY, {"two_n": 6})
    rows = ctx.companion_rows
    if isinstance(rows, CounterexampleFound):
        return _single(ClaimId.COMPANION_DECOMPOSES, two_n, FAIL, rows.witness)
    return _single(ClaimId.COMPANION_DECOMPOSES, two_n, PASS,
                   {"a_primes": len(rows),
                    "prime_companions": sum(map(itemgetter(2), rows))})


def evaluate_claims(
    t: EvenTarget,
    table: PrimeTable,
    claim_ids: tuple[ClaimId, ...] = ALL_CLAIMS,
    *,
    context: TargetContext | None = None,
) -> list[ClaimOutcome]:
    """All requested claim verdicts for a single target, in declaration order.

    They read the objects of ``context``, the TargetContext of ``t`` on
    ``table``, built here when not given, so nothing is built twice.
    """
    ctx = context or TargetContext(t, table)
    wanted = set(claim_ids)
    return [CLAIM_SPECS[c].verdict(ctx) for c in ALL_CLAIMS if c in wanted]


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


def _window_rs(c_lo: int, c_hi: int, bits: bytes) -> list[int]:
    """r(2N) for the evens in [c_lo, c_hi]: each target's prime window ANDed
    with its mirror, one bit per odd.  Bit j of ``fwd`` is the odd 3 + 2j, of
    ``rev`` table index k_hi - j, so ``rev >> (k_hi - k)`` mirrors the window
    of 2N = 2k + 4; both cover only what the targets' h bits reach.  A lone
    target reads its h table bytes from each end of its window through
    ``mirror_pair``, one byte per odd: that skips packing the table to bits."""
    if c_lo == c_hi:
        fwd, rev = mirror_pair(bits, partition_total(c_lo), 1, (c_lo >> 1) - 1)
        return [(fwd & rev).bit_count()]
    k_lo, k_hi = (c_lo >> 1) - 2, (c_hi >> 1) - 2
    fwd = _pack(bits[1 : partition_total(c_hi) + 1])
    rev = _pack(bits[k_hi : k_lo - partition_total(c_lo) : -1])
    return [(fwd & (rev >> (k_hi + 2 - (two_n >> 1)))
             & ((1 << partition_total(two_n)) - 1)).bit_count()
            for two_n in range(c_lo, c_hi + 1, 2)]


def _companion_window(two_n: int, qs, bits: bytes) -> tuple[int, dict | None]:
    """(A-primes, first failed check) of 2N on its byte windows, ``qs`` taken
    as its odd prime factors: (1) no companion is B-type, (2) every listed
    factor divides 2N, (3) no A-prime divides its companion.

    An A-prime p divides 2N - p iff it divides 2N, and then it divides m, the
    odd part of 2N with the listed primes stripped; so (3) reports the
    smallest A-prime among the divisors of m."""
    k = (two_n >> 1) - 2
    b, rb = mirror_pair(btype_bytes(k, qs), k)
    a = int.from_bytes(bits[1 : k + 1], "little") & ~b
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
    return count, None


def _first_false_prime(table: PrimeTable, hi: int) -> int | float:
    """Smallest odd composite up to hi - 3 that the table marks prime, or inf:
    the table against a fresh sieve, compared at C speed."""
    n = (hi >> 1) - 1  # the odds 1, 3, ..., hi - 3
    x = (int.from_bytes(table.odd_bits[1:n], "little")
         & ~int.from_bytes(build_table(hi).odd_bits[1:n], "little"))
    return 3 + 2 * (_low_bit(x) >> 3) if x else math.inf


# ---------------------------------------------------------------------------
# Range verification: the chunk context
# ---------------------------------------------------------------------------


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


class _ChunkContext(Record):
    """The kernel inputs of the evens in [c_lo, c_hi], each built on first use
    and then kept, so that every kernel run on the chunk shares them.  The
    factor sieve runs 2 evens past each end, where the midpoint flankers sit.
    ``pi`` is pi(c_lo - 3), carried in; ``first_false`` is the companions
    kernel's bound (see ``_first_false_prime``); ``digits`` are the chunk's
    slots of the bitmap square (comet)."""

    def __init__(self, c_lo: int, c_hi: int, pi: int,
                 first_false: int | float | None, digits: str | None,
                 table: PrimeTable) -> None:
        set_field(self, "c_lo", c_lo)
        set_field(self, "c_hi", c_hi)
        set_field(self, "pi", pi)
        set_field(self, "first_false", first_false)
        set_field(self, "digits", digits)
        set_field(self, "table", table)

    @property
    def evens(self) -> range:
        return range(self.c_lo, self.c_hi + 1, 2)

    @cached_property
    def halo(self) -> list[list[int]]:
        return _odd_factor_lists(self.c_lo - 4, self.c_hi + 4, self.table)

    @cached_property
    def facs(self) -> list[list[int]]:
        return self.halo[2:-2]

    @cached_property
    def pis(self) -> list[int]:
        """pi(2N - 3) for every target, counted on from the carried pi."""
        i0 = (self.c_lo >> 1) - 1  # table index of c_lo - 1, the next odd counted
        bits = self.table.odd_bits[i0 : i0 + len(self.evens) - 1]
        return list(accumulate(bits, initial=self.pi))

    @cached_property
    def s(self) -> list[int]:
        """s(2N) = pi(2N - 3) - omega_odd(2N) for every target."""
        return list(map(sub, self.pis, map(len, self.facs)))

    @cached_property
    def phis(self) -> list[int]:
        """phi(2N) where the factor list passes the screen, else 0."""
        return list(map(_screened_phi, self.evens, self.facs))

    @cached_property
    def scan(self) -> dict:
        return _chunk_pair_scan(self.c_lo, self.c_hi, self.table)


# ---------------------------------------------------------------------------
# Range verification: chunk kernels
# ---------------------------------------------------------------------------


def _chunk_same_type(chunk: _ChunkContext) -> dict:
    """Mixed partitions of the chunk's evens.  A target whose listed factors
    all divide 2N has none: a is a multiple of a listed q iff 2N - a is, so
    its B-type window is its own mirror.  Any other target compares that
    window with the mirror."""
    evens, facs = chunk.evens, chunk.facs
    mixed_total = 0
    fail = None
    for two_n, qs in compress(zip(evens, facs), map(mod, evens, map(math.prod, facs))):
        count, first = mixed_partitions(two_n, btype_bytes((two_n >> 1) - 2, qs))
        mixed_total += count
        if first and fail is None:
            fail = {"two_n": two_n, "partition": list(first)}
    return {"mixed_total": mixed_total, "fail": fail, "boundary": []}


def _chunk_s_bound(chunk: _ChunkContext) -> dict:
    """The first minimum, maximum and s < 2 of s(2N) in target order.

    From one target to the next pi(2N - 3) rises by 0 or 1, and omega lies
    in [0, W], W the longest list.  So every s at or below the first
    target's, and every s < 2 once the first is not, sits where
    pi <= s_first + W: a prefix that ends before the (W - omega_first + 1)-th
    marked bit.  Every s at or above the last target's sits where
    pi >= s_last: a suffix that starts after the (omega_last + 1)-th marked
    bit from the end.  s is evaluated on those two ends only.
    """
    c_lo, facs, pi = chunk.c_lo, chunk.facs, chunk.pi
    bits = chunk.table.odd_bits
    i0 = (c_lo >> 1) - 1  # bit i0 + i steps pi from target i to target i + 1
    boundary = []
    if c_lo == 6:
        boundary.append({"two_n": 6, "s": pi - len(facs[0])})
        c_lo, i0, pi, facs = 8, i0 + 1, pi + bits[i0], facs[1:]
    n = len(facs)
    out = {"fail": None, "boundary": boundary, "min_s": None, "max_s": None}
    if not n:
        return out

    def s_of(a: int, b: int) -> list[int]:
        """s of the targets [a, b)."""
        pi_a = pi + bits[i0 : i0 + a].count(1)
        return list(map(sub, accumulate(bits[i0 + a : i0 + b - 1], initial=pi_a),
                        map(len, facs[a:b])))

    end = i0 + n - 1  # the bits [i0, end) step the chunk
    j = i0 - 1
    for _ in range(max(map(len, facs)) - len(facs[0]) + 1):
        j = bits.find(1, j + 1, end)
        if j < 0:
            j = end
            break
    head = s_of(0, j - i0 + 1)
    j = end
    for _ in range(len(facs[-1]) + 1):
        j = bits.rfind(1, i0, j)
        if j < 0:
            j = i0 - 1
            break
    first = j - i0 + 1
    tail = s_of(first, n)
    lo, hi = min(head), max(tail)
    out["min_s"] = [lo, c_lo + 2 * head.index(lo)]
    out["max_s"] = [hi, c_lo + 2 * (first + tail.index(hi))]
    if lo < 2:
        i = next(i for i, s in enumerate(head) if s < 2)
        out["fail"] = {"two_n": c_lo + 2 * i, "s": head[i]}
    return out


def _chunk_companions(chunk: _ChunkContext) -> dict:
    """Companion checks for the chunk's evens.

    On a target whose list passes the screen the checks cannot fail, and its
    A-primes are pi(2N - 3) less the listed factors marked prime as long as
    the table marks no composite up to 2N - 3.  Those targets are counted
    in one pass; the others take the byte windows in ascending order.
    """
    c_lo, facs, first_false = chunk.c_lo, chunk.facs, chunk.first_false
    bits = chunk.table.odd_bits
    fast = list(map(truth, chunk.phis))
    if first_false < chunk.c_hi - 2:  # from 2N - 3 >= first_false on
        cut = max(0, (first_false + 3 - c_lo) >> 1)
        fast[cut:] = [False] * (len(fast) - cut)
    boundary = []
    if c_lo == 6:
        fast[0] = False
        boundary.append({"two_n": 6})
    a_total = (sum(compress(chunk.pis, fast))
               - sum(map(bits.__getitem__, map(rshift, chain.from_iterable(
                   compress(facs, fast)), repeat(1)))))
    fail = None
    for two_n, qs in compress(zip(chunk.evens, facs), map(not_, fast)):
        if two_n != 6:
            count, detail = _companion_window(two_n, qs, bits)
            a_total += count
            fail = fail or detail
    return {"fail": fail, "boundary": boundary, "a_primes_checked": a_total}


def _chunk_pair_scan(c_lo, c_hi, table) -> dict:
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

    The halo lists the odd prime factors of the evens in [c_lo - 4, c_hi + 4],
    2 evens past each end of the chunk.  A flanker v of 2N has 2v = 2N -+ 2 or
    2N -+ 4, so its factors sit at index (2v - c_lo + 4) >> 1.  A listed prime
    of v that divides v is prime to 2N, as it would else divide 2 or 4; so
    only a flanker whose listed primes do not all divide v, a wrong list, can
    fail, and only its four targets 2v -+ 2 and 2v -+ 4 are checked, in
    ascending order.  A flanker marked prime is prime to 2N, so it is its own
    A-prime.  The targets with two flankers marked prime are counted off the
    bitmap: N -+ 1 for even N, N -+ 2 for odd N, one byte apart per step of 4.
    """
    c_lo, c_hi, halo = chunk.c_lo, chunk.c_hi, chunk.halo
    bits = chunk.table.odd_bits
    first = max(c_lo, 8)
    vb = ((first >> 1) - 2) | 1
    vs = range(vb, (((c_hi >> 1) + 1) | 1) + 1, 2)  # every flanker in the chunk
    rads = map(math.prod, halo[vb - (c_lo >> 1) + 2 :: 2])
    todo = {2 * v + d for v in compress(vs, map(mod, vs, rads)) for d in (-4, -2, 2, 4)}
    fail = None
    for two_n in sorted(t for t in todo if first <= t <= c_hi):
        for v in midpoint_values(two_n):
            # lists ascend, so shared[0] is the smallest shared prime
            shared = [q for q in halo[(2 * v - c_lo + 4) >> 1] if two_n % q == 0]
            if shared and not bits[v >> 1]:
                fail = {"two_n": two_n, "value": v, "shared_prime": shared[0]}
                break
        if fail is not None:
            break
    both_prime = 0
    f = first >> 1
    for step, n in ((1, f + (f & 1)), (2, f | 1)):  # the smallest even, odd N
        # the flankers N - step and N + step of k targets sit at bytes i, i + step
        i, k = (n - step) >> 1, len(range(n, (c_hi >> 1) + 1, 2))
        lower, upper = (int.from_bytes(bits[j : j + k], "little") for j in (i, i + step))
        both_prime += (lower & upper).bit_count()
    return {"fail": fail, "boundary": [{"two_n": 6}] if c_lo == 6 else [],
            "both_prime_pairs": both_prime}


def _chunk_prime_power(chunk: _ChunkContext) -> dict:
    """Count every 2N = p + p**k identity in the chunk.  Its prime p divides
    p + p**k = 2N, so it is B-type and never an A-prime: the claim holds by
    algebra, and the route only counts the identities it covers."""
    c_lo, c_hi, table = chunk.c_lo, chunk.c_hi, chunk.table
    first = max(c_lo, 8)
    # k = 1: 2N = N + N for every odd N marked prime, at table index N >> 1 =
    # 2N >> 2 for the targets 2N = 2 mod 4.
    inspected = table.odd_bits[first >> 2 : ((c_hi - 2) >> 2) + 1].count(1)
    small = table.small_primes
    for p in small[1 : bisect_right(small, math.isqrt(c_hi))]:
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

    On a passing target the phi(2N) odds prime to 2N form mirrored pairs
    (a, 2N - a), a != N, and none is mixed: a_count is those pairs less
    (1, 2N - 1), b_count h - a_count.  Any other target mirrors its B-type
    window once and keeps its r, which reads only the table.
    """
    c_lo, c_hi, digits, facs, phis = (chunk.c_lo, chunk.c_hi, chunk.digits,
                                      chunk.facs, chunk.phis)
    bits = chunk.table.odd_bits
    if digits is None:
        rs = _window_rs(c_lo, c_hi, bits)
    else:
        w = len(digits) // len(facs)
        n_lo, n_hi = c_lo >> 1, c_hi >> 1
        odd_n = bytearray(len(facs))  # [N odd and marked]
        odd_n[(n_lo | 1) - n_lo :: 2] = bits[(n_lo | 1) >> 1 : (n_hi + 1) >> 1]
        rs = [(int(digits[j : j + w]) + m) >> 1
              for j, m in zip(range(0, len(digits), w), odd_n)]
    a_counts = list(map(sub, map(rshift, phis, repeat(1)), repeat(1)))
    hs = map(floordiv, range(c_lo - 2, c_hi - 1, 2), repeat(4))  # h(2N) = (2N - 2) // 4
    rows = list(zip(chunk.evens, rs, chunk.s, a_counts, map(sub, hs, a_counts)))
    for i in compress(range(len(phis)), map(not_, phis)):
        two_n, r, s = rows[i][:3]
        h = partition_total(two_n)
        fwd, rev = mirror_pair(btype_bytes((two_n >> 1) - 2, facs[i]), h)
        rows[i] = two_n, r, s, h - (fwd | rev).bit_count(), (fwd & rev).bit_count()
    return rows


# ---------------------------------------------------------------------------
# Range verification: orchestration
# ---------------------------------------------------------------------------

_WORKER_TABLE: PrimeTable | None = None


def _worker_init(table: PrimeTable) -> None:
    global _WORKER_TABLE
    _WORKER_TABLE = table


def _evaluate_chunk(kernels, c_lo, c_hi, pi, first_false, digits, table) -> list:
    """Every kernel's result for the evens in [c_lo, c_hi], on one context."""
    chunk = _ChunkContext(c_lo, c_hi, pi, first_false, digits, table)
    return [kernel(chunk) for kernel in kernels]


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
    each chunk's own span."""
    span = 2 * chunk_evens
    pi = pi_upto(lo - 3, table) - 1  # odd primes only
    chunks = []
    for c in range(lo, hi + 1, span):
        chunks.append((c, min(c + span - 2, hi), pi))
        pi += table.odd_bits[(c >> 1) - 1 : ((c + span) >> 1) - 1].count(1)
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
    first_false = math.inf  # a table sieved here is the fresh sieve itself
    if given and ClaimId.COMPANION_DECOMPOSES in selected:
        first_false = _first_false_prime(table, hi)
    jobs = [(kernels, *chunk, first_false, None)
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
        digits, w = _pair_count_digits(table.odd_bits, lo, hi)
        slots = [digits[(c_lo - lo) // 2 * w : (c_hi - lo + 2) // 2 * w]
                 for c_lo, c_hi, _ in chunks]
        del digits
    jobs = [((_chunk_comet,), *chunk, None, digits)
            for chunk, digits in zip(chunks, slots)]
    return [row for (rows,) in _map_chunks(jobs, workers, table) for row in rows]
