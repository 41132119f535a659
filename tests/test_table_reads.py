"""Every route reads the prime table only through ``PrimeTable``'s own
members, and the range kernels only through their chunk context.

``PrimeTable.odds`` and ``count`` are pinned to a brute-force oracle, and no
module names the bitmap field ``odd_bits`` outside ``PrimeTable``'s body.

A ``bytes`` subclass stands in for a true table's bitmap and logs the table
indices that every ``__getitem__``, ``find``, ``rfind`` and ``count`` touches,
and ``_ChunkContext.odds`` is wrapped so that each logged read names the
``odds(lo, hi)`` call that made it.  Every kernel runs alone on fresh chunk
contexts, so each read is charged to the kernel that caused it, and every
read must come through ``odds`` and lie inside the windows its kernel
documents.
"""

import ast
import inspect
import random
from pathlib import Path

import pytest

import goldbach_ab
import goldbach_ab.claims as claims_mod
from goldbach_ab import ClaimId, UsageError, build_table
from goldbach_ab.claims import (
    CLAIM_SPECS,
    _ChunkContext,
    _chunk_comet,
    _chunk_ranges,
    _pair_count_digits,
)
from goldbach_ab.sieve import PrimeTable

from oracles import is_prime_td

READS: list = []  # (first index, last index, the odds(lo, hi) making the read)
ACTIVE: list = []  # the odds(lo, hi) calls running


class RecordingBits(bytes):
    def _note(self, start, stop, step=1):
        span = range(start, stop, step)
        if span:
            lo, hi = sorted((span[0], span[-1]))
            READS.append((lo, hi, ACTIVE[-1] if ACTIVE else None))

    def __getitem__(self, key):
        if isinstance(key, slice):
            self._note(*key.indices(len(self)))
        else:
            self._note(*slice(key, key + 1 or None).indices(len(self)))
        return super().__getitem__(key)

    def find(self, sub, start=None, end=None):
        self._note(*slice(start, end).indices(len(self))[:2])
        return super().find(sub, start, end)

    def rfind(self, sub, start=None, end=None):
        self._note(*slice(start, end).indices(len(self))[:2])
        return super().rfind(sub, start, end)

    def count(self, sub, start=None, end=None):
        self._note(*slice(start, end).indices(len(self))[:2])
        return super().count(sub, start, end)


@pytest.fixture
def marked_odds(monkeypatch):
    real = _ChunkContext.odds

    def odds(self, lo, hi):
        ACTIVE.append((lo, hi))
        try:
            return real(self, lo, hi)
        finally:
            ACTIVE.pop()

    monkeypatch.setattr(_ChunkContext, "odds", odds)
    READS.clear()
    yield READS
    READS.clear()


def _pair_scan_span(chunk):
    """P, the top of the last block of primes the scan walked: on a true
    table every target resolves, the last at the largest smallest prime."""
    p, span = chunk.scan["witness"]["max_min_p"][0], 64
    while span < p:
        span <<= 1
    return span


def _windows(kernel, chunk):
    """The odds (lo, hi) that ``kernel`` documents it reads for ``chunk``."""
    c_lo, c_hi = chunk.c_lo, chunk.c_hi
    steps = (c_lo - 1, c_hi - 3)  # the pi steps of the chunk
    first = max(c_lo, 8)
    if kernel in (CLAIM_SPECS[ClaimId.SAME_TYPE_LEMMA].kernel,
                  CLAIM_SPECS[ClaimId.MIDPOINT_COPRIME].kernel):
        return []
    if kernel is CLAIM_SPECS[ClaimId.S_BOUND].kernel:
        return [steps]
    if kernel is CLAIM_SPECS[ClaimId.PRIME_POWER_EXCLUSION].kernel:
        return [(first >> 1, c_hi >> 1)]
    if kernel is CLAIM_SPECS[ClaimId.MIDPOINT_DECOMPOSES].kernel:
        return [(((first >> 1) - 2) | 1, (c_hi >> 1) + 2)]
    if kernel in (CLAIM_SPECS[ClaimId.PAIRING_NON_EMPTY].kernel,
                  CLAIM_SPECS[ClaimId.GOLDBACH_WITNESS].kernel):
        span = _pair_scan_span(chunk)
        return [(max(1, c_lo + 1 - span), c_hi - 3), (3, min(span, c_hi >> 1))]
    if kernel is CLAIM_SPECS[ClaimId.COMPANION_DECOMPOSES].kernel:
        return [steps] if chunk.trusted else [(3, c_hi - 3)]
    assert kernel is _chunk_comet
    if chunk.digits is None:  # each target's prime window
        return [(3, c_hi - 3)]
    return [steps, (c_lo >> 1, c_hi >> 1)]  # and the odd N marked prime


def _kernel_runs(lo, hi, chunk_evens, table):
    """(kernel, fresh chunk context) for every kernel on every chunk, the
    companions kernel trusted and not, comet with and without the square."""
    digits, w = _pair_count_digits(table.odd_bits, lo, hi)
    for c_lo, c_hi, pi in _chunk_ranges(lo, hi, chunk_evens, table):
        for spec in CLAIM_SPECS.values():
            yield spec.kernel, _ChunkContext(c_lo, c_hi, pi, True, None, table)
        kernel = CLAIM_SPECS[ClaimId.COMPANION_DECOMPOSES].kernel
        yield kernel, _ChunkContext(c_lo, c_hi, pi, False, None, table)
        slots = digits[(c_lo - lo) // 2 * w : (c_hi - lo + 2) // 2 * w]
        yield _chunk_comet, _ChunkContext(c_lo, c_hi, pi, False, slots, table)
        yield _chunk_comet, _ChunkContext(c_lo, c_hi, pi, False, None, table)


@pytest.mark.parametrize("lo, hi", [(6, 2_400), (8, 2_402)])
@pytest.mark.parametrize("chunk_evens", [1, 3, 64, 8192])
def test_kernels_read_only_their_windows_through_odds(marked_odds, lo, hi,
                                                      chunk_evens):
    true = build_table(hi + 1)
    table = PrimeTable(true.limit, RecordingBits(true.odd_bits))
    assert table.small_primes == true.small_primes  # a fresh sieve's, read off no bitmap
    runs = list(_kernel_runs(lo, hi, chunk_evens, table))
    kernels_read = set()
    for kernel, chunk in runs:
        marked_odds.clear()
        kernel(chunk)
        windows = _windows(kernel, chunk)
        for first, last, via in marked_odds:
            assert via is not None, (kernel.__name__, chunk, first, last)
            odd_lo, odd_hi = via
            # the read covers exactly odds it was asked for ...
            assert odd_lo <= 2 * first + 1 <= 2 * last + 1 <= odd_hi, (kernel, via)
            # ... and they lie in a window the kernel documents
            assert any(a <= odd_lo and odd_hi <= b for a, b in windows), (
                kernel.__name__, chunk.c_lo, chunk.c_hi, via, windows)
        if marked_odds:
            kernels_read.add(kernel.__name__)
    want = {"_chunk_s_bound", "_chunk_prime_power", "_chunk_midpoint_decomposes",
            "_chunk_witness", "_chunk_pairing", "_chunk_companions", "_chunk_comet"}
    if chunk_evens == 1:  # a one-target chunk takes no pi step
        want.remove("_chunk_s_bound")
    assert kernels_read == want


def _kernel_sources():
    """Every range kernel and kernel helper, and every chunk context member
    but the two that read the table."""
    # _chunk_ranges runs in the parent, which carries pi from chunk to chunk
    names = [n for n in vars(claims_mod)
             if n.startswith("_chunk_") and n != "_chunk_ranges"]
    names += ["_window_rs", "_companion_window", "_odd_factor_lists", "_screened_phi",
              "_zeros", "_factor_sieve", "_Factors", "_SievedFactors"]
    for name in names:
        yield name, inspect.getsource(getattr(claims_mod, name))
    for name, member in vars(_ChunkContext).items():
        if name in ("odds", "small_primes"):
            continue
        fn = getattr(member, "func", None) or getattr(member, "fget", None) or member
        if inspect.isfunction(fn):
            yield f"_ChunkContext.{name}", inspect.getsource(fn)


def test_no_kernel_names_the_table():
    sources = dict(_kernel_sources())
    assert "_chunk_pair_scan" in sources and "_ChunkContext.halo" in sources
    for name, source in sources.items():
        for word in ("odd_bits", "odd_primes", ".table"):
            assert word not in source, (name, word)


@pytest.mark.parametrize("flipped", [False, True])
def test_odds_and_count_match_the_oracle(flipped):
    """``odds``, ``count`` and ``odd_primes`` on every window of small
    tables, true and doctored, and the refusal past the limit."""
    for limit in range(2, 65):
        marked = {m for m in range(1, limit + 1, 2) if is_prime_td(m)}
        if flipped:  # a doctored table: 1 and a few other odds change their mark
            odds = range(1, limit + 1, 2)
            marked ^= {1, *random.Random(limit).sample(odds, len(odds) // 2)}
        table = PrimeTable(limit, bytes(m in marked for m in range(1, limit + 1, 2)))
        for lo in range(limit + 1):
            for hi in range(lo, limit + 1):
                want = bytes(m in marked for m in range(lo | 1, hi + 1, 2))
                assert table.odds(lo, hi) == want, (limit, lo, hi)
                assert table.count(lo, hi) == sum(want), (limit, lo, hi)
                assert list(table.odd_primes(lo, hi)) == [
                    m for m in range(max(lo, 3) | 1, hi + 1, 2) if m in marked
                ], (limit, lo, hi)
            for hi in (limit + 1, limit + 2):
                for read in (table.odds, table.count, table.odd_primes):
                    with pytest.raises(UsageError, match=f"exceeds table limit {limit}"):
                        read(lo, hi)


def test_only_prime_table_names_the_bitmap():
    """In the package, ``odd_bits`` is named, as an attribute or a string,
    only inside the body of ``PrimeTable``."""
    inside, outside = 0, []
    for path in sorted(Path(goldbach_ab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owned = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                 and cls.name == "PrimeTable" for node in ast.walk(cls)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "odd_bits"
                    or isinstance(node, ast.Constant) and node.value == "odd_bits"):
                if id(node) in owned:
                    inside += 1
                else:
                    outside.append(f"{path.name}:{node.lineno}")
    assert outside == []
    assert inside > 0
