import functools
import json
import math
import multiprocessing
import weakref
from collections import defaultdict
from itertools import accumulate
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from goldbach_ab import (
    ALL_CLAIMS,
    ClaimId,
    CounterexampleFound,
    EvenTarget,
    NotAPureAProduct,
    UsageError,
    build_table,
    comet_rows,
    companions,
    census,
    decompose_over_a_basis,
    evaluate_claims,
    midpoint_report,
    pairing_report,
    prime_power_exclusion,
    range_verify,
    split_primes,
    verify_s_bounds,
    verify_same_type_lemma,
)
import goldbach_ab.claims as claims_mod
import goldbach_ab.cli as cli_mod
import goldbach_ab.sieve as sieve_mod
from goldbach_ab.claims import (
    _ChunkContext,
    _SievedFactors,
    _chunk_comet,
    _chunk_companions,
    _chunk_midpoint_coprime,
    _chunk_midpoint_decomposes,
    _chunk_pair_scan,
    _chunk_prime_power,
    _chunk_ranges,
    _chunk_s_bound,
    _chunk_same_type,
    _departures,
    _odd_factor_lists,
    _pair_count_digits,
    _window_rs,
    TargetContext,
    claim_goldbach_witness,
    claim_pairing_non_empty,
)
from goldbach_ab.classify import btype_bytes
from goldbach_ab.cli import build_analyze_report, main
from goldbach_ab.partition import PartitionKind, classify_partition, goldbach_partitions
from goldbach_ab.sieve import PrimeTable, _base_primes, pi_upto

import oracles
from oracles import (
    BitWindows,
    comet_row_td,
    companions_td,
    doctored_companion_fail_td,
    doctored_pair_scan_fails_td,
    factorize_td,
    is_prime_td,
    midpoints_td,
    split_td,
)

evens = st.integers(min_value=3, max_value=10_000).map(lambda n: 2 * n)


def _split(two_n, table):
    return split_primes(EvenTarget(two_n), table)


# ---------------------------------------------------------------------------
# decompose_over_a_basis
# ---------------------------------------------------------------------------


def test_decompose_examples(table_1k):
    s20 = _split(20, table_1k)
    v = decompose_over_a_basis(9, s20, table_1k)
    assert v.as_prime_dict() == {3: 2}
    assert v.value() == 9
    assert v.exps == [2, 0, 0, 0, 0]  # basis (3, 7, 11, 13, 17)

    with pytest.raises(NotAPureAProduct):
        decompose_over_a_basis(15, s20, table_1k)

    s10 = _split(10, table_1k)
    v7 = decompose_over_a_basis(7, s10, table_1k)
    assert v7.as_prime_dict() == {7: 1}
    assert v7.exps == [0, 1]  # basis (3, 7)


def test_decompose_rejects_out_of_window(table_1k):
    s20 = _split(20, table_1k)
    for bad in (1, 2, 4, 19, 21):
        with pytest.raises(UsageError):
            decompose_over_a_basis(bad, s20, table_1k)


@settings(max_examples=100, deadline=None)
@given(evens, st.data())
def test_decompose_reconstructs_or_flags_shared_factor(table_20k, two_n, data):
    # odd m in [3, 2N-3]
    m = data.draw(
        st.integers(min_value=1, max_value=two_n // 2 - 2).map(lambda i: 2 * i + 1)
    )
    split = _split(two_n, table_20k)
    if math.gcd(m, two_n) == 1:
        vec = decompose_over_a_basis(m, split, table_20k)
        assert vec.value() == m
        assert sum(e for _, e in vec.nonzero) >= 1
    else:
        with pytest.raises(NotAPureAProduct):
            decompose_over_a_basis(m, split, table_20k)


# ---------------------------------------------------------------------------
# companions
# ---------------------------------------------------------------------------


def test_companion_examples(table_1k):
    s20 = _split(20, table_1k)
    recs = {r.p: r for r in companions(EvenTarget(20), s20, table_1k)}
    assert recs[11].companion == 9
    assert not recs[11].companion_is_prime
    assert recs[11].exps.as_prime_dict() == {3: 2}
    assert recs[11].exps.exps == [2, 0, 0, 0, 0]  # basis (3, 7, 11, 13, 17)
    assert recs[11].exps.exponent_at(s20.a_primes.index(11)) == 0
    assert recs[3].companion == 17 and recs[3].companion_is_prime

    s10 = _split(10, table_1k)
    recs10 = {r.p: r for r in companions(EvenTarget(10), s10, table_1k)}
    assert recs10[3].companion == 7 and recs10[3].companion_is_prime


def test_companions_empty_when_no_a_primes(table_1k):
    assert companions(EvenTarget(6), _split(6, table_1k), table_1k) == []


def test_companions_require_a_covering_table():
    short = build_table(1_001)
    companions(EvenTarget(1_004), _split(1_004, short), short)  # reaches 2N - 3
    split = _split(1_006, build_table(1_003))
    with pytest.raises(UsageError, match="does not cover the window of 2N=1006"):
        companions(EvenTarget(1_006), split, short)


def test_companion_invariants_exhaustive(table_1k):
    for two_n in range(8, 600, 2):
        t = EvenTarget(two_n)
        split = _split(two_n, table_1k)
        for rec in companions(t, split, table_1k):
            assert rec.p + rec.companion == two_n
            assert math.gcd(rec.companion, two_n) == 1
            assert rec.exps.value() == rec.companion
            i = split.a_primes.index(rec.p)
            assert rec.exps.exponent_at(i) == 0
            assert rec.companion_is_prime == is_prime_td(rec.companion)


def _records_or_witness(build, t, split, table):
    try:
        return build(t, split, table)
    except CounterexampleFound as exc:
        return str(exc), exc.witness


@settings(max_examples=150, deadline=None)
@given(evens, st.data())
def test_companions_match_trial_division_on_flipped_tables(table_20k, two_n, data):
    # flips below 60 fall on the small primes, which the walk takes from a
    # fresh sieve, not from the bitmap
    flips = data.draw(st.lists(
        st.one_of(st.integers(min_value=0, max_value=60),
                  st.integers(min_value=0, max_value=two_n // 2 - 1)),
        max_size=6,
    ))
    table = table_20k
    if flips:
        bits = bytearray(table.odd_bits)
        for i in flips:
            bits[i] ^= 1
        table = PrimeTable(table.limit, bytes(bits))
    t = EvenTarget(two_n)
    split = split_primes(t, table)
    assert (_records_or_witness(companions, t, split, table)
            == _records_or_witness(companions_td, t, split, table))


@settings(max_examples=150, deadline=None)
# 3 cleared, 45 marked prime: a walk over the bitmap's small primes would list
# 75 as 5^2 before its cofactor 3
@example(two_n=120, flips=[1, 22])
@given(two_n=evens, flips=st.lists(
    st.one_of(st.integers(min_value=0, max_value=60),
              st.integers(min_value=0, max_value=9_999)),
    max_size=6,
))
def test_analyze_rows_match_trial_division_on_flipped_tables(table_20k, two_n, flips):
    """The analyze report and the companion verdict, both read from the rows
    of one factor walk, against records split by trial division."""
    bits = bytearray(table_20k.odd_bits)
    for i in flips:
        bits[i % (two_n >> 1)] ^= 1
    table = PrimeTable(table_20k.limit, bytes(bits))
    t = EvenTarget(two_n)
    split = split_primes(t, table)
    try:
        records = companions_td(t, split, table)
    except CounterexampleFound as exc:
        want = {"error": str(exc), "witness": exc.witness}
        verdict = ("fail", exc.witness)
    else:
        want = [{"p": r.p, "companion": r.companion,
                 "companion_is_prime": r.companion_is_prime,
                 "exponents": r.exps.as_prime_dict()} for r in records]
        verdict = ("pass", {"a_primes": len(records), "prime_companions":
                            sum(r.companion_is_prime for r in records)})
    if two_n == 6:
        verdict = ("boundary", {"two_n": 6})
    got = build_analyze_report(t, table)["companions"]
    assert got == want
    assert json.dumps(got) == json.dumps(want)  # exponents in the same order
    (out,) = evaluate_claims(t, table, (ClaimId.COMPANION_DECOMPOSES,),
                             context=TargetContext(t, table, split))
    assert (out.status, out.payload) == verdict


# ---------------------------------------------------------------------------
# pairing and midpoints
# ---------------------------------------------------------------------------


def test_pairing_examples(table_1k):
    r20 = pairing_report(EvenTarget(20), _split(20, table_1k), table_1k)
    assert r20.pairs == ((3, 17), (7, 13))
    assert r20.unpaired == (11,)
    r12 = pairing_report(EvenTarget(12), _split(12, table_1k), table_1k)
    assert r12.pairs == ((5, 7),)
    assert r12.unpaired == ()
    r6 = pairing_report(EvenTarget(6), _split(6, table_1k), table_1k)
    assert r6.pairs == () and r6.unpaired == ()


def test_pairing_claim_at_boundary_six(table_1k):
    out = claim_pairing_non_empty(EvenTarget(6), _split(6, table_1k), table_1k)
    assert out.status == "boundary"
    assert out.payload["b_self_pair"] == [3, 3]
    wit = claim_goldbach_witness(EvenTarget(6), table_1k)
    assert wit.status == "pass"
    assert wit.payload["smallest_pair"] == [3, 3]
    assert wit.payload["kind"] == "B"


def test_pairing_matches_a_type_goldbach_pairs(table_20k):
    for two_n in range(6, 1_200, 2):
        t = EvenTarget(two_n)
        split = _split(two_n, table_20k)
        report = pairing_report(t, split, table_20k)
        a_pairs = [
            (g.a, g.b)
            for g in goldbach_partitions(t, table_20k)
            if g.kind is PartitionKind.A
        ]
        assert list(report.pairs) == a_pairs, two_n
        # unpaired exactly when the companion is composite, covering all A-primes
        flat = {p for pair in report.pairs for p in pair}
        assert flat | set(report.unpaired) == set(split.a_primes)
        assert not flat & set(report.unpaired)


def test_pairing_identity_reduces_to_companion_primality(table_1k):
    # an A-prime's companion equals some A-prime exactly when the pair is listed
    for two_n in range(8, 400, 2):
        t = EvenTarget(two_n)
        split = _split(two_n, table_1k)
        report = pairing_report(t, split, table_1k)
        a_set = set(split.a_primes)
        for rec in companions(t, split, table_1k):
            in_pairs = any(rec.p in pair for pair in report.pairs)
            assert in_pairs == (rec.companion in a_set)
            assert in_pairs == rec.companion_is_prime


@settings(max_examples=150, deadline=None)
@example(two_n=30, flips=[13])  # 27 marked prime: it shares 3 with 30
@given(two_n=evens, flips=st.lists(
    st.one_of(st.integers(min_value=0, max_value=60),
              st.integers(min_value=0, max_value=9_999)),
    max_size=6,
))
def test_split_invariants_hold_on_flipped_tables(table_20k, two_n, flips):
    """What the single-target routes no longer check holds on any table: an
    A-prime of split_primes is prime to 2N and never divides its companion,
    no partition is mixed, same-type and prime-power exclusion pass, and the
    pairing covers the A-primes exactly once."""
    bits = bytearray(table_20k.odd_bits)
    for i in flips:
        bits[i % (two_n >> 1)] ^= 1
    table = PrimeTable(table_20k.limit, bytes(bits))
    t = EvenTarget(two_n)
    split = split_primes(t, table)
    assert all(math.gcd(p, two_n) == 1 and (two_n - p) % p for p in split.a_primes)
    assert all(math.gcd(q, two_n) > 1 for q in split.b_primes)
    cen = census(t, table)  # the B-type window is its own mirror on any table
    assert cen.mixed_count == 0
    (same,) = evaluate_claims(t, table, (ClaimId.SAME_TYPE_LEMMA,))
    assert same.status == "pass"
    assert same.payload["a_count"] + same.payload["b_count"] == same.payload["total"]
    out = prime_power_exclusion(t, split, table)
    if two_n == 6:
        assert (out.status, out.payload) == ("boundary", {"two_n": 6})
    else:
        assert (out.status, out.payload) == (
            "pass", {"two_n": two_n, "a_primes_checked": split.s})
    report = pairing_report(t, split, table)
    assert all(p < q and p + q == two_n for p, q in report.pairs)
    flat = [p for pair in report.pairs for p in pair]
    assert sorted(flat + list(report.unpaired)) == list(split.a_primes)
    assert not any(bits[(two_n - p) >> 1] for p in report.unpaired)


def test_midpoint_examples(table_1k):
    r20 = midpoint_report(EvenTarget(20), _split(20, table_1k), table_1k)
    assert r20.parity == "even"
    assert [(v.value, v.is_prime) for v in r20.values] == [(9, False), (11, True)]
    assert r20.values[0].exps.as_prime_dict() == {3: 2}
    assert r20.both_prime_pair is None

    r12 = midpoint_report(EvenTarget(12), _split(12, table_1k), table_1k)
    assert [(v.value, v.is_prime) for v in r12.values] == [(5, True), (7, True)]
    assert r12.both_prime_pair == (5, 7)

    r14 = midpoint_report(EvenTarget(14), _split(14, table_1k), table_1k)
    assert r14.parity == "odd"
    assert [(v.value, v.is_prime) for v in r14.values] == [(5, True), (9, False)]
    assert r14.values[1].exps.as_prime_dict() == {3: 2}
    assert all(math.gcd(v.value, 14) == 1 for v in r14.values)


def test_midpoint_report_rejects_six(table_1k):
    with pytest.raises(UsageError):
        midpoint_report(EvenTarget(6), _split(6, table_1k), table_1k)


def test_midpoint_coprime_and_decompose_exhaustive(table_1k):
    for two_n in range(8, 1_000, 2):
        t = EvenTarget(two_n)
        split = _split(two_n, table_1k)
        rep = midpoint_report(t, split, table_1k)
        v1, v2 = midpoints_td(two_n)
        assert [v.value for v in rep.values] == [v1, v2]
        for v in rep.values:
            assert math.gcd(v.value, two_n) == 1
            assert v.exps is not None
            assert v.exps.value() == v.value
        if is_prime_td(v1) and is_prime_td(v2):
            assert rep.both_prime_pair == (v1, v2)
            assert v1 + v2 == two_n


# ---------------------------------------------------------------------------
# s bounds, prime power exclusion, same type
# ---------------------------------------------------------------------------


def test_verify_s_bounds_examples(table_1k):
    assert verify_s_bounds(EvenTarget(8), _split(8, table_1k)).status == "pass"
    assert verify_s_bounds(EvenTarget(8), _split(8, table_1k)).payload["s"] == 2
    b6 = verify_s_bounds(EvenTarget(6), _split(6, table_1k))
    assert (b6.status, b6.payload["s"]) == ("boundary", 0)
    out30 = verify_s_bounds(EvenTarget(30), _split(30, table_1k))
    assert (out30.status, out30.payload["s"]) == ("pass", 6)


def test_prime_power_exclusion_examples(table_1k):
    assert prime_power_exclusion(
        EvenTarget(20), _split(20, table_1k), table_1k
    ).status == "pass"
    assert prime_power_exclusion(
        EvenTarget(10), _split(10, table_1k), table_1k
    ).status == "pass"
    assert prime_power_exclusion(
        EvenTarget(6), _split(6, table_1k), table_1k
    ).status == "boundary"
    # 12 - 5 = 7 is not a power of 5: implied by the A-prime loop passing
    assert (12 - 5) % 5 != 0


def test_unread_table_arguments_may_be_left_out(table_1k):
    for two_n in (6, 10, 12, 30, 998):
        t = EvenTarget(two_n)
        split = _split(two_n, table_1k)
        assert prime_power_exclusion(t, split) == prime_power_exclusion(
            t, split, table_1k)
        for a in range(3, two_n // 2 + 1, 2):
            assert classify_partition(a, two_n - a, t) is classify_partition(
                a, two_n - a, t, table_1k)


def test_same_type_lemma_examples(table_1k, table_100k):
    assert verify_same_type_lemma(EvenTarget(20), table_1k).status == "pass"
    assert verify_same_type_lemma(EvenTarget(6), table_1k).status == "pass"
    assert verify_same_type_lemma(EvenTarget(10_000), table_100k).status == "pass"


def test_evaluate_claims_orders_and_passes(table_1k):
    outs = evaluate_claims(EvenTarget(20), table_1k)
    assert [o.claim_id for o in outs] == list(ALL_CLAIMS)
    assert all(o.status == "pass" for o in outs)
    outs6 = {o.claim_id: o for o in evaluate_claims(EvenTarget(6), table_1k)}
    assert outs6[ClaimId.SAME_TYPE_LEMMA].status == "pass"
    assert outs6[ClaimId.GOLDBACH_WITNESS].status == "pass"
    assert outs6[ClaimId.S_BOUND].status == "boundary"
    assert outs6[ClaimId.MIDPOINT_COPRIME].status == "boundary"
    assert outs6[ClaimId.COMPANION_DECOMPOSES].status == "boundary"


def test_evaluate_claims_reads_a_given_context(table_20k):
    for two_n in (6, 8, 30, 2310, 9240):
        t = EvenTarget(two_n)
        ctx = TargetContext(t, table_20k)
        outs = evaluate_claims(t, table_20k, context=ctx)
        assert outs == evaluate_claims(t, table_20k)
        picked = (ClaimId.GOLDBACH_WITNESS, ClaimId.S_BOUND)
        assert evaluate_claims(t, table_20k, picked) == [outs[1], outs[6]]


def test_single_claims_fail_with_the_report_witness(table_1k):
    # 97 cleared: the companion 97 of the A-prime 3 of 100 has a factor the
    # table does not mark prime; the verdict carries the walk's witness
    table = _doctored_table(table_1k, (97,))
    by_id = {o.claim_id: o for o in evaluate_claims(EvenTarget(100), table)}
    comp = by_id[ClaimId.COMPANION_DECOMPOSES]
    assert (comp.status, comp.payload) == ("fail", {
        "two_n": 100, "p": 3, "companion": 97, "factor": 97,
        "reason": "factor not marked prime"})
    # 27 marked prime shares 3 with 30, so it is a B-prime and no report breaks
    table = _doctored_table(table_1k, (), (27,))
    t = EvenTarget(30)
    split = _split(30, table)
    assert 27 in split.b_primes
    by_id = {o.claim_id: o for o in evaluate_claims(t, table)}
    pairing = by_id[ClaimId.PAIRING_NON_EMPTY]
    assert pairing.status == by_id[ClaimId.COMPANION_DECOMPOSES].status == "pass"
    assert claim_pairing_non_empty(t, split, table) == pairing


def test_witness_and_pairing_fail_without_a_goldbach_pair(table_1k):
    # 17 and 23 cleared: 28 = 5 + 23 = 11 + 17 loses both prime partitions,
    # and no A-prime pair or self pair is left to cover it
    table = _doctored_table(table_1k, (17, 23))
    t = EvenTarget(28)
    by_id = {o.claim_id: o for o in evaluate_claims(t, table)}
    pairing = by_id[ClaimId.PAIRING_NON_EMPTY]
    assert (pairing.status, pairing.payload) == ("fail", {"two_n": 28, "count": 0})
    witness = by_id[ClaimId.GOLDBACH_WITNESS]
    assert (witness.status, witness.payload) == ("fail", {"two_n": 28, "count": 0})
    outs = range_verify(28, 28, table=table,
                        claims=(ClaimId.PAIRING_NON_EMPTY, ClaimId.GOLDBACH_WITNESS))
    assert [(o.status, o.payload["counterexample"]) for o in outs] == [
        ("fail", {"two_n": 28, "count": 0})] * 2


# ---------------------------------------------------------------------------
# range verification
# ---------------------------------------------------------------------------


def test_range_verify_small_range_all_pass(table_1k):
    outs = range_verify(8, 1_000, workers=1, table=table_1k)
    assert [o.claim_id for o in outs] == list(ALL_CLAIMS)
    assert all(o.status == "pass" for o in outs)
    by_id = {o.claim_id: o for o in outs}
    assert by_id[ClaimId.S_BOUND].payload["min_s"] == {"s": 2, "two_n": 8}
    assert by_id[ClaimId.SAME_TYPE_LEMMA].payload["evens_checked"] == 497


def test_range_verify_boundary_at_six(table_1k):
    outs = range_verify(6, 6, claims=(ClaimId.S_BOUND,), table=table_1k)
    assert len(outs) == 1
    assert outs[0].status == "boundary"
    assert outs[0].payload["boundary_cases"] == [{"two_n": 6, "s": 0}]


def test_range_verify_matches_single_target_evaluators(table_20k):
    sample = [6, 8, 10, 12, 16, 30, 100, 210, 1024, 5000, 9962, 20_000]
    for two_n in sample:
        t = EvenTarget(two_n)
        singles = {o.claim_id: o for o in evaluate_claims(t, table_20k)}
        ranged = {
            o.claim_id: o
            for o in range_verify(two_n, two_n, workers=1, table=table_20k)
        }
        for cid in ALL_CLAIMS:
            assert singles[cid].status == ranged[cid].status, (two_n, cid)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_range_verify_worker_count_invariance(table_20k, workers):
    outs = range_verify(6, 3_000, workers=workers, table=table_20k, chunk_evens=128)
    outs1 = range_verify(6, 3_000, workers=1, table=table_20k, chunk_evens=128)
    assert [o.as_dict() for o in outs] == [o.as_dict() for o in outs1]


def test_range_verify_chunk_size_invariance(table_20k):
    # lo = 6 puts the first chunk's halo at the even 2
    base = [o.as_dict() for o in range_verify(6, 4_000, table=table_20k)]
    for chunk_evens in (1, 2, 3, 64):
        outs = range_verify(6, 4_000, table=table_20k, chunk_evens=chunk_evens)
        assert [o.as_dict() for o in outs] == base, chunk_evens


@pytest.mark.parametrize("chunk_evens", [3, 8192])
def test_range_both_prime_pairs_match_midpoint_reports(table_20k, chunk_evens):
    ranged = range_verify(8, 5_000, claims=(ClaimId.MIDPOINT_DECOMPOSES,),
                          table=table_20k, chunk_evens=chunk_evens)[0]
    want = sum(
        1
        for two_n in range(8, 5_001, 2)
        if midpoint_report(EvenTarget(two_n), _split(two_n, table_20k),
                           table_20k).both_prime_pair
    )
    assert ranged.payload["both_prime_pairs"] == want > 0


# Every claim but the three that hold by algebra fails with 3, 5 and 7
# unmarked; with 17 and 23 cleared, a companion and a flanker have a factor
# the table clears, and 28 = 5 + 23 = 11 + 17 loses both prime partitions.
_CLAIM_ALONE_TABLES = {"flipped": ((3, 5, 7), ()), "doctored": ((17, 23), ())}


@pytest.mark.parametrize("chunk_evens", [1, 3, 64, 8192])
@pytest.mark.parametrize("variant", ["true", "flipped", "doctored"])
def test_each_claim_alone_equals_its_entry_in_the_all_claims_run(
    table_20k, variant, chunk_evens
):
    """A chunk builds its factor sieve and pair scan once, for the claims that
    read them; a claim run alone must give the outcome it has among all
    claims, failing payloads included."""
    table = table_20k
    if variant in _CLAIM_ALONE_TABLES:
        table = _doctored_table(table, *_CLAIM_ALONE_TABLES[variant])
    together = range_verify(6, 4_000, table=table, chunk_evens=chunk_evens)
    assert [o.claim_id for o in together] == list(ALL_CLAIMS)
    for o in together:
        (alone,) = range_verify(6, 4_000, claims=(o.claim_id,), table=table,
                                chunk_evens=chunk_evens)
        assert alone.as_dict() == o.as_dict(), o.claim_id
    failing = sum(o.status == "fail" for o in together)
    assert failing == {"true": 0, "flipped": 5, "doctored": 4}[variant]


# Tables that clear a prime, and one that also marks the composite 27: each
# breaks companions and midpoint-decomposes.
_FAILING_RUN_TABLES = [((41,), ()), ((167,), ()), ((3,), ()), ((17, 23), (27,))]


@pytest.mark.parametrize("doctor", _FAILING_RUN_TABLES)
def test_failing_run_payloads_do_not_depend_on_chunks(table_20k, doctor):
    clear, mark = doctor
    table = _doctored_table(table_20k, clear, mark)
    worker_counts = (1, 2) if multiprocessing.get_start_method() == "fork" else (1,)
    runs = {
        (chunk_evens, workers): [o.as_dict() for o in range_verify(
            6, 2_100, workers=workers, table=table, chunk_evens=chunk_evens)]
        for chunk_evens in (1, 2, 3, 64, 8192) for workers in worker_counts
    }
    first = runs[(1, 1)]
    assert all(run == first for run in runs.values())
    by_id = {o["claim"]: o for o in first}
    comp = by_id[ClaimId.COMPANION_DECOMPOSES.value]
    mid = by_id[ClaimId.MIDPOINT_DECOMPOSES.value]
    assert comp["status"] == mid["status"] == "fail"
    # every target counts: its A-primes are the marked odds prime to 2N, and
    # its flankers are both marked or not on the doctored table
    marked = _doctored_marks(clear, mark)
    assert comp["payload"]["a_primes_checked"] == sum(
        oracles.s_td(two_n, marked) for two_n in range(8, 2_101, 2))
    assert mid["payload"]["both_prime_pairs"] == sum(
        all(map(marked, midpoints_td(two_n))) for two_n in range(8, 2_101, 2))


@functools.lru_cache
def _window_first_fail(lo, hi, clear, mark, claim):
    """The oracle's counterexample of ``claim`` at the smallest failing target
    in [lo, hi] of a table doctored by ``clear`` and ``mark``, or None."""
    marked = _doctored_marks(clear, mark)
    return next(filter(None, (oracles.claim_fails_td(two_n, marked)[claim.value]
                              for two_n in range(lo, hi + 1, 2))), None)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("chunk_evens", [1, 2, 3, 8192])
@pytest.mark.parametrize(
    "v, q", [(25, 3), (25, 23), (45, 23), (1001, 167), (1025, 3)]
)
def test_range_midpoint_decomposes_reports_doctored_factor(
    table_20k, v, q, chunk_evens, workers
):
    """The prime q cleared from the table, over the five targets about 2v, of
    which four have the flanker v: midpoint-decomposes fails at the first
    target with a flanker that q divides, on that flanker and with q as its
    factor, and passes where q divides none."""
    if workers > 1 and multiprocessing.get_start_method() != "fork":
        pytest.skip("doctored range tests run pools only under fork")
    lo, hi = 2 * v - 4, 2 * v + 4
    assert sum(v in midpoints_td(two_n) for two_n in range(lo, hi + 1, 2)) == 4
    # Brute force: the targets ascending, each flanker in order.
    want = next(({"two_n": two_n, "value": w, "factor": q,
                  "reason": "factor not marked prime"}
                 for two_n in range(lo, hi + 1, 2)
                 for w in midpoints_td(two_n) if w % q == 0), None)
    assert want == _window_first_fail(lo, hi, (q,), (), ClaimId.MIDPOINT_DECOMPOSES)
    table = _doctored_table(table_20k, (q,))
    out = range_verify(lo, hi, claims=(ClaimId.MIDPOINT_DECOMPOSES,),
                       workers=workers, table=table, chunk_evens=chunk_evens)[0]
    assert out.status == ("pass" if want is None else "fail")
    assert out.payload.get("counterexample") == want
    marked = _doctored_marks((q,), ())
    assert out.payload["both_prime_pairs"] == sum(
        all(map(marked, midpoints_td(two_n))) for two_n in range(lo, hi + 1, 2))


# (two_n, q): the prime q, which does not divide two_n, lands below and above
# N and on a power of two; on 2000 no A-prime has a companion divisible by
# 1951 (2000 - 1951 = 49), and the first failure is 2004 = 53 + 1951.
_DOCTORED_EVENS = [(30, 7), (1024, 3), (1366, 41), (2000, 1951), (2002, 5)]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("chunk_evens", [1, 2, 3, 8192])
@pytest.mark.parametrize("two_n, q", _DOCTORED_EVENS)
def test_range_companions_report_doctored_factor(
    table_20k, two_n, q, chunk_evens, workers
):
    """The prime q cleared from the table, over the six targets from two_n:
    the companion claim fails at the first target with an A-prime whose
    companion q divides, on the smallest such A-prime and with q as the
    factor, and counts each target's marked odds prime to it."""
    if workers > 1 and multiprocessing.get_start_method() != "fork":
        pytest.skip("doctored range tests run pools only under fork")
    assert two_n % q and is_prime_td(q)
    lo, hi = two_n, two_n + 10
    marked = _doctored_marks((q,), ())
    # Brute force: the targets ascending, each A-prime ascending.
    want = next(({"two_n": t, "p": p, "companion": t - p, "factor": q,
                  "reason": "factor not marked prime"}
                 for t in range(lo, hi + 1, 2) for p in range(3, t - 2, 2)
                 if marked(p) and math.gcd(p, t) == 1 and (t - p) % q == 0), None)
    assert want == _window_first_fail(lo, hi, (q,), (), ClaimId.COMPANION_DECOMPOSES)
    assert (want["two_n"] == two_n) == (two_n != 2_000)
    table = _doctored_table(table_20k, (q,))
    out = range_verify(lo, hi, claims=(ClaimId.COMPANION_DECOMPOSES,),
                       workers=workers, table=table, chunk_evens=chunk_evens)[0]
    assert out.status == ("pass" if want is None else "fail")
    assert out.payload.get("counterexample") == want
    assert out.payload["a_primes_checked"] == sum(
        oracles.s_td(t, marked) for t in range(lo, hi + 1, 2))


# (two_n, q): an odd prime factor q of two_n that the table clears while it
# marks the composite q * q.
_DROPPED_FACTORS = [(30, 3), (1050, 7), (2046, 3)]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("chunk_evens", [1, 2, 3, 8192])
@pytest.mark.parametrize("two_n, q", _DROPPED_FACTORS)
def test_range_companions_report_dropped_factor(
    table_20k, two_n, q, chunk_evens, workers
):
    """A table that clears the factor q of two_n and marks q * q: the fused
    sieve still lists q, so q * q is B-type at two_n and no A-prime there
    divides its companion, as one would on a factor list that dropped the
    cleared q.  Same-type holds, and the companion claim counts and fails
    as the oracle does over the five targets about two_n."""
    if workers > 1 and multiprocessing.get_start_method() != "fork":
        pytest.skip("doctored range tests run pools only under fork")
    assert two_n % q == 0 and is_prime_td(q) and q * q <= two_n - 3
    clear, mark = (q,), (q * q,)
    marked = _doctored_marks(clear, mark)
    # q * q would be an A-prime of two_n on a list without q, and fail
    listed = [p for p in factorize_td(two_n) if p not in (2, q)]
    assert doctored_companion_fail_td(two_n, listed, marked)["two_n"] == two_n
    assert oracles.claim_fails_td(two_n, marked)["companion_decomposes"] is None
    table = _doctored_table(table_20k, clear, mark)
    lo, hi = max(6, two_n - 4), two_n + 4
    for a, b in ((two_n, two_n), (lo, hi)):
        same_type, comp = range_verify(
            a, b, workers=workers, table=table, chunk_evens=chunk_evens,
            claims=(ClaimId.SAME_TYPE_LEMMA, ClaimId.COMPANION_DECOMPOSES))
        assert same_type.status == "pass" and same_type.payload["mixed_total"] == 0
        want = _window_first_fail(a, b, clear, mark, ClaimId.COMPANION_DECOMPOSES)
        assert comp.status == ("pass" if want is None else "fail")
        assert comp.payload.get("counterexample") == want
        assert comp.payload["a_primes_checked"] == sum(
            oracles.s_td(t, marked) for t in range(max(a, 8), b + 1, 2))


def _doctored_table(table, clear=(), mark=()):
    """``table`` with the odd values in ``clear`` marked composite and those in
    ``mark`` marked prime."""
    bits = bytearray(table.odd_bits)
    for m in clear:
        bits[m >> 1] = 0
    for m in mark:
        bits[m >> 1] = 1
    return PrimeTable(table.limit, bytes(bits))


# Every prime partner of 1000 cleared; the partner 3 of 6 cleared (only the
# witness claim fails: 6 is the pairing boundary); 27 marked prime, so that
# 30 = 3 + 27 has a partner divisible by its prime; and both of the first and
# last at once, so one chunk holds both kinds of witness failure.
_PARTNERS_OF_1000 = tuple(q for q in range(500, 998) if is_prime_td(q))
_DOCTORED_PARTNERS = {
    "no-partner": (_PARTNERS_OF_1000, ()),
    "no-partner-at-6": ((3,), ()),
    "divisible-partner": ((), (27,)),
    "divisible-then-no-partner": (_PARTNERS_OF_1000, (27,)),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("chunk_evens", [1, 2, 3, 8192])
@pytest.mark.parametrize("case", sorted(_DOCTORED_PARTNERS))
def test_range_witness_and_pairing_report_doctored_table(
    table_20k, case, chunk_evens, workers
):
    if workers > 1 and multiprocessing.get_start_method() != "fork":
        pytest.skip("doctored range tests run pools only under fork")
    clear, mark = _DOCTORED_PARTNERS[case]
    table = _doctored_table(table_20k, clear, mark)
    witness, pairing = doctored_pair_scan_fails_td(
        6, 2_100, lambda m: (is_prime_td(m) and m not in clear) or m in mark
    )
    assert witness is not None
    outs = range_verify(6, 2_100, workers=workers, table=table,
                        chunk_evens=chunk_evens,
                        claims=(ClaimId.GOLDBACH_WITNESS, ClaimId.PAIRING_NON_EMPTY))
    by_id = {o.claim_id: o for o in outs}
    out = by_id[ClaimId.GOLDBACH_WITNESS]
    assert out.status == "fail"
    assert out.payload["counterexample"] == witness
    out = by_id[ClaimId.PAIRING_NON_EMPTY]
    if pairing is None:
        assert out.status != "fail"
    else:
        assert out.status == "fail"
        assert out.payload["counterexample"] == pairing


# A composite marked prime (below and above the screen's reach), and a prime
# cleared that is a listed factor of many targets.
_DOCTORED_TABLES = {
    "composite-27": ((), (27,)),
    "composite-1309": ((), (1309,)),
    "cleared-5": ((5,), ()),
    "cleared-5-composite-27": ((5,), (27,)),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("chunk_evens", [1, 3, 8192])
@pytest.mark.parametrize("case", sorted(_DOCTORED_TABLES))
def test_comet_rows_and_a_primes_on_doctored_tables(table_20k, case, chunk_evens,
                                                      workers):
    if workers > 1 and multiprocessing.get_start_method() != "fork":
        pytest.skip("doctored range tests run pools only under fork")
    clear, mark = _DOCTORED_TABLES[case]
    table = _doctored_table(table_20k, clear, mark)
    want_rows, want_a_primes = _doctored_table_oracle(case)
    rows = comet_rows(6, 2_100, workers=workers, table=table, chunk_evens=chunk_evens)
    assert rows == want_rows
    comp = range_verify(6, 2_100, claims=(ClaimId.COMPANION_DECOMPOSES,),
                        workers=workers, table=table, chunk_evens=chunk_evens)[0]
    assert comp.payload["a_primes_checked"] == want_a_primes
    if clear:  # 8 = 3 + 5 is the first target with a companion factor cleared
        want = {"two_n": 8, "p": 3, "companion": 5, "factor": 5,
                "reason": "factor not marked prime"}
        assert doctored_companion_fail_td(8, [], lambda m: m == 3) == want
        assert (comp.status, comp.payload["counterexample"]) == ("fail", want)
    else:
        assert comp.status == "boundary"  # a marked composite is an A-type odd


@functools.lru_cache
def _doctored_table_oracle(case):
    """Comet rows and A-primes counted over [6, 2100] by trial division, with
    the marks of ``_DOCTORED_TABLES[case]``."""
    clear, mark = _DOCTORED_TABLES[case]
    marked = {m for m in range(3, 2_100, 2)
              if (is_prime_td(m) and m not in clear) or m in mark}
    rows = [comet_row_td(two_n, marked.__contains__) for two_n in range(6, 2_101, 2)]
    a_primes = sum(1 for two_n in range(8, 2_101, 2) for m in marked
                   if m <= two_n - 3 and math.gcd(m, two_n) == 1)
    return rows, a_primes


def test_trust_bit_needs_the_fresh_sieve_both_ways(table_20k):
    """A caller's table is trusted only when it equals a fresh sieve on the
    odds up to hi - 3, that is, when it has no departures: a cleared prime is
    one as a marked composite is, and a bit past hi - 3 is none."""
    bare = PrimeTable(table_20k.limit, table_20k.odd_bits)
    assert _departures(bare, 20_000) == ()
    for clear, mark in (((7,), ()), ((), (27,)), ((7, 19_997), (27, 1_309))):
        table = _doctored_table(table_20k, clear, mark)
        for hi in (8, 28, 20_000):  # 27 lies above 28 - 3, 19 997 at 20 000 - 3
            assert _departures(table, hi) == tuple(
                m for m in sorted((*clear, *mark)) if m <= hi - 3), (clear, mark, hi)


def test_marked_small_composites_leave_the_factor_lists_alone():
    """21 and 613 marked prime below the root of a table of limit 4001: the
    factor sieve walks a fresh sieve's small primes, so a target's list does
    not depend on the chunk around it, and range runs return the same output
    at every chunk size."""
    table = _doctored_table(build_table(4_001), (), (21, 613))
    assert (_odd_factor_lists(1_806, 1_806, table) == [[3, 7, 43]]
            == [_odd_factor_lists(2, 4_004, table)[902]])
    outputs = set()
    for chunk_evens in (1, 2, 3, 64, 8192):
        outs = range_verify(6, 2_000, table=table, chunk_evens=chunk_evens)
        rows = comet_rows(6, 2_000, table=table, chunk_evens=chunk_evens)
        outputs.add(json.dumps([[o.as_dict() for o in outs], rows]))
    assert len(outputs) == 1


@pytest.mark.parametrize("two_n, clear, mark", [
    (28, (17, 23), ()), (30, (), (27,)), (50, (), (45,)), (8, (3,), ())])
def test_single_target_and_range_routes_agree(two_n, clear, mark):
    """The one-target chunk decides every single-target fail but s_bound's,
    so the two routes agree on status and counterexample; s_bound's own
    verdict agrees too, as the range reads s off the windows here."""
    table = _doctored_table(build_table(101), clear, mark)
    single = {o.claim_id: o for o in evaluate_claims(EvenTarget(two_n), table)}
    ranged = {o.claim_id: o for o in range_verify(two_n, two_n, table=table)}
    for cid in ALL_CLAIMS:
        one, many = single[cid], ranged[cid]
        assert one.status == many.status, cid
        assert (one.payload if one.status == "fail" else None) == (
            many.payload.get("counterexample")), cid


# One case per class in which the two routes disagreed while each decided
# its own fail: (2N, cleared, marked, claim, status on both routes, what the
# range payload holds); a failing single-target payload is the range's
# counterexample.
_GAP_CLASSES = {
    # a companion with a cleared prime factor
    "companions-28": (28, (17, 23), (), ClaimId.COMPANION_DECOMPOSES, "fail", {
        "counterexample": {"two_n": 28, "p": 5, "companion": 23, "factor": 23,
                           "reason": "factor not marked prime"}}),
    "companions-8": (8, (3,), (), ClaimId.COMPANION_DECOMPOSES, "fail", {
        "counterexample": {"two_n": 8, "p": 5, "companion": 3, "factor": 3,
                           "reason": "factor not marked prime"}}),
    # a flanker with a cleared prime factor
    "midpoint-8": (8, (3,), (), ClaimId.MIDPOINT_DECOMPOSES, "fail", {
        "counterexample": {"two_n": 8, "value": 3, "factor": 3,
                           "reason": "factor not marked prime"}}),
    # a marked partner that shares the prime 3 with 30
    "witness-30": (30, (), (27,), ClaimId.GOLDBACH_WITNESS, "fail", {
        "counterexample": {"two_n": 30, "p": 3,
                           "reason": "divisible partner reported prime"}}),
    # s counts 3 and 7, the marked odds prime to 10, where pi - omega is 1
    "s-bound-10": (10, (5,), (), ClaimId.S_BOUND, "pass", {
        "min_s": {"s": 2, "two_n": 10}, "max_s": {"s": 2, "two_n": 10}}),
    # 6 stays the pairing claim's boundary case with 3 cleared
    "pairing-6": (6, (3,), (), ClaimId.PAIRING_NON_EMPTY, "boundary", {
        "evens_checked": 0, "boundary_cases": [{"two_n": 6, "pair": None}]}),
}


@pytest.mark.parametrize("case", list(_GAP_CLASSES))
def test_each_class_of_the_old_gap_takes_one_decider(case):
    two_n, clear, mark, cid, status, payload = _GAP_CLASSES[case]
    table = _doctored_table(_table_301(), clear, mark)
    (single,) = evaluate_claims(EvenTarget(two_n), table, (cid,))
    (ranged,) = range_verify(two_n, two_n, (cid,), table=table)
    assert single.status == ranged.status == status
    assert {k: ranged.payload.get(k) for k in payload} == payload
    if status == "fail":
        assert single.payload == payload["counterexample"]
    assert oracles.claim_fails_td(two_n, _doctored_marks(clear, mark))[cid.value] == (
        payload.get("counterexample"))


@functools.lru_cache
def _table_301():
    return build_table(301)


def _doctored_marks(clear, mark):
    """Which odds below 301 a table doctored by ``clear`` and ``mark`` marks."""
    return lambda m: (is_prime_td(m) and m not in clear) or m in mark


@settings(max_examples=50, deadline=None)
@example(flips=[8, 11])  # 17 and 23 cleared
@example(flips=[1])  # 3 cleared
@example(flips=[13])  # 27 marked
@example(flips=[2])  # 5 cleared
@given(flips=st.lists(st.integers(min_value=1, max_value=149), min_size=1,
                      max_size=4, unique=True))
def test_one_decider_on_doctored_tables(flips):
    """1-4 odds below 300 flipped: at every 2N the one-target chunk fails each
    claim exactly where the brute-force oracle does, with its counterexample;
    ``evaluate_claims`` gives the chunk's statuses, s_bound's own verdict
    included; each single-target report shows a failure exactly where the
    outcome fails; and comet's s is the split's at every chunk size."""
    true = _table_301()
    bits = bytearray(true.odd_bits)
    for i in flips:
        bits[i] ^= 1
    table = PrimeTable(true.limit, bytes(bits))
    s = [split_primes(EvenTarget(two_n), table).s for two_n in range(6, 301, 2)]
    for chunk_evens in (1, 3, 64):
        rows = comet_rows(6, 300, table=table, chunk_evens=chunk_evens)
        assert [row[2] for row in rows] == s, chunk_evens
    for two_n in range(6, 301, 2):
        t = EvenTarget(two_n)
        ranged = range_verify(two_n, two_n, table=table)
        assert {o.claim_id.value: o.payload.get("counterexample") for o in ranged} == (
            oracles.claim_fails_td(two_n, lambda m: bits[m >> 1])), two_n
        ctx = TargetContext(t, table)
        single = evaluate_claims(t, table, context=ctx)
        assert [o.status for o in single] == [o.status for o in ranged], two_n
        fails = {o.claim_id for o in single if o.status == "fail"}
        try:
            companions(t, ctx.split, table)
        except CounterexampleFound:
            raised = True
        else:
            raised = False
        pairs = ctx.census.goldbach_pairs
        p = pairs[0][0] if pairs else None
        reports = {
            ClaimId.COMPANION_DECOMPOSES: raised,
            ClaimId.MIDPOINT_DECOMPOSES: ctx.midpoints is not None and any(
                v.exps is None for v in ctx.midpoints.values),
            ClaimId.PAIRING_NON_EMPTY: two_n != 6 and not pairs,
            ClaimId.GOLDBACH_WITNESS: not pairs or (two_n % p == 0 and 2 * p != two_n),
            ClaimId.S_BOUND: two_n != 6 and ctx.split.s < 2,
        }
        assert {cid for cid, failed in reports.items() if failed} == fails, two_n


# Doctorings of build_table(301) for the range runs below: each cleared or
# marked odd of the five classes, two at once, and four flips elsewhere.
_RANGE_DOCTORINGS = {
    "cleared-17-23": ((17, 23), ()),
    "cleared-3": ((3,), ()),
    "marked-27": ((), (27,)),
    "cleared-5-marked-27": ((5,), (27,)),
    "four-flips": ((61, 137), (221, 287)),
}


@functools.lru_cache
def _first_fails(case):
    """Each claim's smallest failing 2N in [6, 300] by the oracle, with its
    counterexample, or None."""
    marked = _doctored_marks(*_RANGE_DOCTORINGS[case])
    first = dict.fromkeys(c.value for c in ALL_CLAIMS)
    for two_n in range(6, 301, 2):
        for claim, fail in oracles.claim_fails_td(two_n, marked).items():
            if first[claim] is None:
                first[claim] = fail
    return first


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("chunk_evens", [1, 3, 64])
@pytest.mark.parametrize("case", list(_RANGE_DOCTORINGS))
def test_range_verify_fails_at_the_oracles_smallest_target(case, chunk_evens, workers):
    if workers > 1 and multiprocessing.get_start_method() != "fork":
        pytest.skip("doctored range tests run pools only under fork")
    table = _doctored_table(_table_301(), *_RANGE_DOCTORINGS[case])
    outs = range_verify(6, 300, table=table, chunk_evens=chunk_evens, workers=workers)
    want = _first_fails(case)
    assert {o.claim_id.value: o.payload.get("counterexample") for o in outs} == want
    assert any(want.values())


def test_comparison_sieve_runs_once_and_only_for_a_rebuilt_table(monkeypatch, capsys,
                                                                  table_20k):
    """A table that ``build_table`` returns is a fresh sieve, with no
    departures, so no route sieves it a second time; a table rebuilt from its
    fields is compared with one fresh sieve of its limit, once for all runs."""
    limits = []
    real = sieve_mod.build_table

    def counted(limit, *args, **kwargs):
        limits.append(limit)
        return real(limit, *args, **kwargs)

    for module in (sieve_mod, claims_mod, cli_mod):
        monkeypatch.setattr(module, "build_table", counted)

    def sieves():  # whole-table sieves since the last call, the base primes' left out
        got = [limit for limit in limits if limit > 1_000]
        limits.clear()
        return got

    def runs(table):
        outs = range_verify(8, 20_000, table=table)
        return [[o.as_dict() for o in outs], comet_rows(8, 20_000, table=table)]

    want = runs(table_20k)
    evaluate_claims(EvenTarget(19_998), table_20k)
    assert sieves() == []
    assert main(["analyze", "88934"]) == 0 and main(["census", "88934"]) == 0
    capsys.readouterr()
    assert sieves() == [88_935, 88_935]  # each command's own table
    rebuilt = PrimeTable(table_20k.limit, table_20k.odd_bits)
    assert runs(rebuilt) == want
    assert sieves() == [20_001]
    assert runs(rebuilt) == want
    assert sieves() == []


def test_a_chunk_below_the_first_departure_takes_no_window(monkeypatch):
    """Each chunk reads the table's departures up to its own c_hi - 3: with
    the odd 30 001 flipped, only the chunks that reach it take the per-target
    A-windows, and every target below it gets the true table's row."""
    true = build_table(40_001)
    bits = bytearray(true.odd_bits)
    bits[30_001 >> 1] ^= 1
    table = PrimeTable(true.limit, bytes(bits))
    want = comet_rows(6, 30_002, table=true)
    reached = set()
    real = claims_mod._a_window

    def recorded(two_n, qs, chunk):
        reached.add(chunk.c_hi)
        return real(two_n, qs, chunk)

    monkeypatch.setattr(claims_mod, "_a_window", recorded)
    rows = comet_rows(6, 40_000, table=table)
    assert reached and min(reached) - 3 >= 30_001, sorted(reached)
    assert rows[: len(want)] == want
    reached.clear()
    range_verify(6, 40_000, claims=(ClaimId.S_BOUND, ClaimId.COMPANION_DECOMPOSES),
                 table=table)
    assert reached and min(reached) - 3 >= 30_001, sorted(reached)


def test_doctored_partner_cases_reach_every_failure_branch():
    got = set()
    for clear, mark in _DOCTORED_PARTNERS.values():
        witness, pairing = doctored_pair_scan_fails_td(
            6, 2_100, lambda m: (is_prime_td(m) and m not in clear) or m in mark
        )
        got.add(("witness", witness.get("reason", "count")))
        got.add(("pairing", pairing is not None))
    assert got == {("witness", "count"),
                   ("witness", "divisible partner reported prime"),
                   ("pairing", True), ("pairing", False)}


def test_in_process_range_runs_release_the_table():
    table = build_table(3_001)
    ref = weakref.ref(table)
    range_verify(8, 3_000, table=table, chunk_evens=500)
    comet_rows(8, 3_000, table=table, chunk_evens=500)
    del table
    assert ref() is None


class _InProcessPool:
    """Stands in for multiprocessing.Pool: records its size, maps in-process."""

    sizes: list = []

    def __init__(self, processes, initializer, initargs):
        self.sizes.append(processes)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return [fn(item) for item in items]


def test_pool_gives_each_worker_two_chunks(table_20k, monkeypatch):
    base = [o.as_dict() for o in range_verify(8, 20_000, table=table_20k)]
    rows = comet_rows(8, 2_000, table=table_20k, chunk_evens=300)
    cpus = claims_mod._usable_cpus()
    monkeypatch.setattr(claims_mod, "_usable_cpus", lambda: max(2, cpus))
    monkeypatch.setattr(_InProcessPool, "sizes", [])
    monkeypatch.setattr(claims_mod, "multiprocessing",
                        SimpleNamespace(Pool=_InProcessPool))
    # min(workers, chunks // 2) processes: none for the 2 chunks at the
    # default chunk size, 2 for the 4 chunks at 300 evens
    outs = range_verify(8, 20_000, workers=64, table=table_20k)
    assert [o.as_dict() for o in outs] == base
    assert comet_rows(8, 2_000, workers=64, table=table_20k, chunk_evens=300) == rows
    assert comet_rows(8, 2_000, workers=3, table=table_20k, chunk_evens=300) == rows
    assert _InProcessPool.sizes == [2, 2]


def test_pool_never_outnumbers_the_usable_cpus(table_20k, monkeypatch):
    base = [o.as_dict() for o in range_verify(8, 20_000, table=table_20k,
                                              chunk_evens=300)]
    monkeypatch.setattr(claims_mod, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(_InProcessPool, "sizes", [])
    monkeypatch.setattr(claims_mod, "multiprocessing",
                        SimpleNamespace(Pool=_InProcessPool))
    # 34 chunks would give 17 workers two chunks each; 3 CPUs cap the pool
    outs = range_verify(8, 20_000, workers=64, table=table_20k, chunk_evens=300)
    assert [o.as_dict() for o in outs] == base
    assert _InProcessPool.sizes == [3]


def test_range_verify_usage_errors(table_1k):
    with pytest.raises(UsageError):
        range_verify(7, 9, table=table_1k)
    with pytest.raises(UsageError):
        range_verify(10, 8, table=table_1k)
    with pytest.raises(UsageError):
        range_verify(4, 8, table=table_1k)
    with pytest.raises(UsageError):
        range_verify(8, 10, workers=0, table=table_1k)
    # table too small
    with pytest.raises(UsageError, match="does not cover the window of 2N=5000"):
        range_verify(8, 5_000, table=table_1k)
    with pytest.raises(UsageError, match="does not cover the window of 2N=5000"):
        comet_rows(8, 5_000, table=table_1k)


@pytest.mark.parametrize("chunk_evens", [0, -1])
def test_range_runs_reject_a_chunk_size_below_one(table_1k, chunk_evens):
    with pytest.raises(UsageError):
        range_verify(8, 100, table=table_1k, chunk_evens=chunk_evens)
    with pytest.raises(UsageError):
        comet_rows(8, 100, table=table_1k, chunk_evens=chunk_evens)


def test_range_runs_build_each_chunk_input_once(table_20k, monkeypatch):
    """All claims of a chunk share one fused sieve record, and on a true table
    no kernel builds a factor list."""
    calls = defaultdict(int)

    def counted(name):
        real = getattr(claims_mod, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(claims_mod, name, wrapper)

    counted("_SievedFactors")
    counted("_odd_factor_lists")
    range_verify(6, 3_000, table=table_20k, chunk_evens=100)
    assert calls == {"_SievedFactors": 15}
    calls.clear()
    comet_rows(6, 3_000, table=table_20k, chunk_evens=100)
    assert calls == {"_SievedFactors": 15}


def test_range_s_stats_match_direct_recompute(table_1k):
    outs = range_verify(8, 1_000, claims=(ClaimId.S_BOUND,), table=table_1k)
    payload = outs[0].payload
    s_by_two_n = {two_n: _split(two_n, table_1k).s for two_n in range(8, 1_001, 2)}
    want_min = min(s_by_two_n.values())
    want_max = max(s_by_two_n.values())
    assert payload["min_s"]["s"] == want_min
    assert payload["max_s"]["s"] == want_max
    assert s_by_two_n[payload["min_s"]["two_n"]] == want_min
    assert s_by_two_n[payload["max_s"]["two_n"]] == want_max


def _cleared(table, flips):
    """The primes among the odds 2i + 1 of ``flips`` that ``table`` leaves
    unmarked, ascending, by trial division."""
    return sorted({2 * i + 1 for i in flips
                   if is_prime_td(2 * i + 1) and not table.odd_bits[i]})


_PAD = list(range(1_001, 1_061, 2))  # 30 entries that lengthen a list


def _padded(facs):
    return sorted({*facs, *_PAD})


def _counted(partial, c_lo, c_hi):
    """An oracle partial without its ``checked`` counts, the pair scan's two
    sub-dicts' included, each asserted to be the chunk's evens less its
    boundary cases: the count the range merge makes in the kernels' stead."""
    evens = (c_hi - c_lo) // 2 + 1
    parts = [partial, *(partial[k] for k in ("witness", "pairing") if k in partial)]
    for part in parts:
        assert part.pop("checked") == evens - len(part.get("boundary", ())), part
    return partial


# (lo, hi, list edits, odds the table leaves unmarked, (payload key, two_n)
# where the doctoring shows); on [1900, 2200] s moves by less than 30
_S_BOUND_CASES = {
    # a list padded mid-range holds the minimum
    "padded": (1_900, 2_200, {2_002: _padded}, (), ("min_s", 2_002)),
    # an emptied list holds the maximum when the lists after it are padded
    "emptied": (1_900, 2_200, {2_002: lambda f: [],
                               **dict.fromkeys(range(2_004, 2_201, 2), _padded)},
                (), ("max_s", 2_002)),
    # 6 is a boundary case with its own s, and 8 fails on a padded list
    "six": (6, 200, {6: lambda f: [3, 5], 8: _padded}, (), ("counterexample", 8)),
    # with 3, 5 and 7 unmarked the smallest targets have s < 2
    "unmarked": (6, 2_000, {}, (3, 5, 7), ("counterexample", 8)),
}


@pytest.mark.parametrize("chunk_evens", [1, 2, 3, 64, 8192])
@pytest.mark.parametrize("case", list(_S_BOUND_CASES))
def test_s_stats_on_doctored_lists_match_the_oracle(table_20k, chunk_evens, case):
    """Each chunk's s_bound partial, on the record that the doctored lists
    define placed in its context's ``halo`` slot, equals the scalar oracle's
    on those lists, and the partials merge to the oracle's run; on the
    unmarked table, whose lists are true, a range run gives that merge."""
    lo, hi, edits, unmarked, (key, two_n) = _S_BOUND_CASES[case]
    table = _doctored_table(table_20k, unmarked)

    def doctored(c_lo, c_hi):
        facs = _odd_factor_lists(c_lo, c_hi, table)
        for t, edit in edits.items():
            if c_lo <= t <= c_hi:
                facs[(t - c_lo) >> 1] = edit(facs[(t - c_lo) >> 1])
        return facs

    partials = []
    for c_lo, c_hi, pi in _chunk_ranges(lo, hi, chunk_evens, table):
        chunk = _ChunkContext(c_lo, c_hi, pi, _departures(table, c_hi), None, table)
        vars(chunk)["halo"] = oracles.ListedFactors(c_lo - 4, c_hi + 4,
                                                    doctored(c_lo - 4, c_hi + 4))
        partials.append(_chunk_s_bound(chunk))
        assert (partials[-1]
                == _counted(oracles.s_bound_chunk(
                    c_lo, c_hi, doctored(c_lo, c_hi), table, bool(chunk.departures)),
                    c_lo, c_hi)), (c_lo, c_hi)
    whole = oracles.s_bound_chunk(lo, hi, doctored(lo, hi), table, bool(unmarked))
    out = claims_mod._merge_partials(ClaimId.S_BOUND, partials, lo, hi)
    if not edits:
        assert range_verify(lo, hi, claims=(ClaimId.S_BOUND,), table=table,
                            chunk_evens=chunk_evens) == [out]
    assert out.payload["min_s"] == dict(zip(("s", "two_n"), whole["min_s"]))
    assert out.payload["max_s"] == dict(zip(("s", "two_n"), whole["max_s"]))
    assert out.payload.get("counterexample") == whole["fail"]
    assert out.payload[key]["two_n"] == two_n


# windows of the end-window route: c_lo = 6 and 8, and the odd primorials
# 2 * 3 * ... * 11, ... * 13 and ... * 17, where omega meets its bound
_PRIMORIALS = (2_310, 30_030, 510_510)
_S_BOUND_WINDOWS = [(6, 600), (8, 600), *((p - 120, p + 120) for p in _PRIMORIALS)]
# whole 8192-even chunks holding each primorial: the second chunk from 6
# holds 30 030
_S_BOUND_CHUNKS = [(6, 16_388), (16_390, 32_772), (500_000, 516_382)]


@pytest.mark.parametrize("chunk_evens, lo, hi", [
    *((c, lo, hi) for c in (1, 2, 3, 64, 8192) for lo, hi in _S_BOUND_WINDOWS),
    *((8192, lo, hi) for lo, hi in _S_BOUND_CHUNKS),
])
def test_s_bound_end_windows_match_the_oracle(table_1e7, chunk_evens, lo, hi):
    """s is read only at a chunk's two ends, under the primorial bound on
    omega; every chunk's partial equals the scalar oracle's, and on the
    chunk holding a primorial its omega equals the bound."""
    table = table_1e7
    met = set()
    for c_lo, c_hi, pi in _chunk_ranges(lo, hi, chunk_evens, table):
        chunk = _ChunkContext(c_lo, c_hi, pi, (), None, table)
        assert (_chunk_s_bound(chunk)
                == _counted(oracles.s_bound_chunk(
                    c_lo, c_hi, _odd_factor_lists(c_lo, c_hi, table), table),
                    c_lo, c_hi)), (c_lo, c_hi)
        for p in _PRIMORIALS:
            if c_lo <= p <= c_hi:
                assert chunk.halo.omega_at(p, p)[0] == chunk.halo.omega_bound(), p
                met.add(p)
    assert met == {p for p in _PRIMORIALS if lo <= p <= hi}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_s_bound_end_windows_match_the_oracle_to_1e7(table_1e7, data):
    """Random ranges up to 1e7, some starting near a primorial."""
    chunk_evens = data.draw(st.sampled_from((1, 2, 3, 64, 8192)))
    near = data.draw(st.sampled_from((6, 8, *_PRIMORIALS, 9_699_690)))
    lo = data.draw(st.one_of(
        st.integers(max(3, near // 2 - chunk_evens), near // 2).map(lambda n: 2 * n),
        st.integers(3, 5 * 10**6 - 8192).map(lambda n: 2 * n),
    ))
    hi = min(lo + 2 * data.draw(st.integers(0, min(2 * chunk_evens, 9_000))), 10**7)
    for c_lo, c_hi, pi in _chunk_ranges(lo, hi, chunk_evens, table_1e7):
        chunk = _ChunkContext(c_lo, c_hi, pi, (), None, table_1e7)
        assert (_chunk_s_bound(chunk)
                == _counted(oracles.s_bound_chunk(
                    c_lo, c_hi, _odd_factor_lists(c_lo, c_hi, table_1e7), table_1e7),
                    c_lo, c_hi)), (c_lo, c_hi)


def test_omega_bound_holds_on_every_chunk_to_1e7(table_1e7):
    """On every 8192-even chunk halo of [6, 1e7] the sieved omega stays
    within the primorial bound, and meets it on the chunks holding 510 510
    and 9 699 690 = 2 * 3 * ... * 19."""
    met = []
    for c_lo, c_hi, _ in _chunk_ranges(6, 10**7, 8192, table_1e7):
        halo = _SievedFactors(c_lo - 4, c_hi + 4, table_1e7.small_primes)
        top, bound = max(halo.omega), halo.omega_bound()
        assert top <= bound, (c_lo, c_hi, top, bound)
        if c_lo <= 510_510 <= c_hi or c_lo <= 9_699_690 <= c_hi:
            met.append((top, bound))
    assert met == [(6, 6), (7, 7)]


def _logged_passes(monkeypatch) -> list:
    """(pass, lo of its record, its width, its record's width) for every log
    pass and division pass of a sieved record from now on."""
    passes = []
    for name in ("_log_omega", "_divide"):
        def logged(self, lo, hi, real=getattr(claims_mod._SievedFactors, name),
                   name=name):
            passes.append((name, self.lo, (hi - lo) // 2 + 1,
                           (self.hi - self.lo) // 2 + 1))
            return real(self, lo, hi)
        monkeypatch.setattr(claims_mod._SievedFactors, name, logged)
    return passes


def test_s_bound_sieves_only_the_chunk_ends(table_1e7, monkeypatch):
    """The linear claims' s statistics sieve no whole chunk, only its two
    ends.  Companions, alone or with every claim, read the whole omega by
    log weights once per chunk halo, and divide only on the fallback halo
    from 6; with every claim, companions runs first, so s_bound slices that
    omega and makes no window pass.  Comet makes one division pass per halo,
    which builds phi and omega together."""
    passes = _logged_passes(monkeypatch)
    linear = tuple(c for c in ALL_CLAIMS if c not in (
        ClaimId.SAME_TYPE_LEMMA, ClaimId.COMPANION_DECOMPOSES))
    lo, hi = 1_000_000, 1_100_000  # 7 chunks of up to 8192 evens
    range_verify(lo, hi, claims=linear, table=table_1e7)
    assert passes and len(passes) <= 2 * 7
    assert all(name == "_log_omega" and width < whole // 10
               for name, _, width, whole in passes), passes
    for claims in ((ClaimId.COMPANION_DECOMPOSES,), ALL_CLAIMS):
        for lo, hi, fallbacks in ((1_000_000, 1_100_000, []), (6, 50_000, [2])):
            passes.clear()
            range_verify(lo, hi, claims=claims, table=table_1e7)
            logs = [(at, width == size) for name, at, width, size in passes
                    if name == "_log_omega"]
            assert all(whole for _, whole in logs), passes
            assert len(logs) == len(range(lo, hi + 1, 2 * 8192)), passes
            assert [at for name, at, _, _ in passes if name == "_divide"] == (
                fallbacks), passes
    passes.clear()
    comet_rows(100_000, 140_000, table=table_1e7)
    assert [(name, width == whole) for name, _, width, whole in passes] == (
        [("_divide", True)] * 3), passes


def _passes(lo, hi, small):
    """(log pass or None, division pass) of omega on the evens in [lo, hi],
    each on a fresh record of the small primes ``small``."""
    record = functools.partial(claims_mod._SievedFactors, lo, hi, small)
    return record()._log_omega(lo, hi), record()._divide(lo, hi)[0]


# the halos where the log bounds leave no gap, per chunk size: only the first
# halo from 6, whose N start at 1
_LOG_FALLBACKS = {1: [(2, 10)], 3: [(2, 14)], 64: [(2, 136)], 8192: [(2, 16_392)]}


def test_log_omega_equals_the_division_pass_to_1e7(table_1e7):
    """Every 8192-even chunk halo of [6, 1e7], the first one falling back."""
    fallbacks = []
    for c_lo, c_hi, _ in _chunk_ranges(6, 10**7, 8192, table_1e7):
        lo, hi = c_lo - 4, c_hi + 4
        log, divided = _passes(lo, hi, table_1e7.small_primes)
        assert divided == bytes(map(len, _odd_factor_lists(lo, hi, table_1e7))), (lo, hi)
        if log is None:
            fallbacks.append((lo, hi))
        else:
            assert log == divided, (lo, hi)
    assert fallbacks == _LOG_FALLBACKS[8192]


@functools.lru_cache
def _small_primes_to(height):
    return (2, *_base_primes(height))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from((10**9, 10**12)), st.integers(0, 10**6), st.integers(0, 300))
@example(10**9, 0, 300)
@example(10**12, 0, 300)
def test_log_omega_near_1e9_and_1e12(height, below, span):
    """Halos just below 1e9 and 1e12 need no table, only the small primes up
    to the square root.  There K is 8 and 6, and a byte one weight unit too
    wide would wrap on a smooth N."""
    hi = height - 2 * below
    lo = max(hi - 2 * span, 2)
    small = _small_primes_to(height)
    log, divided = _passes(lo, hi, small)
    listed = _odd_factor_lists(lo, hi, SimpleNamespace(small_primes=small))
    assert log == divided == bytes(map(len, listed)), (lo, hi)


# ---------------------------------------------------------------------------
# comet rows
# ---------------------------------------------------------------------------


def test_comet_rows_match_census_and_split(table_1k):
    rows = comet_rows(6, 1_000, table=table_1k)
    assert rows[0][0] == 6 and rows[-1][0] == 1_000
    for two_n, r, s, a_count, b_count in rows[::7]:
        t = EvenTarget(two_n)
        c = census(t, table_1k)
        assert (r, a_count, b_count) == (c.goldbach_count, c.a_count, c.b_count)
        assert s == _split(two_n, table_1k).s


def test_comet_rows_worker_invariance(table_1k):
    base = comet_rows(6, 1_000, workers=1, table=table_1k, chunk_evens=64)
    for workers in (2, 4):
        assert comet_rows(
            6, 1_000, workers=workers, table=table_1k, chunk_evens=64
        ) == base


def test_comet_rows_chunk_size_invariance(table_20k):
    base = comet_rows(6, 4_000, table=table_20k, chunk_evens=8192)
    for chunk_evens in (1, 2, 3, 64):
        assert comet_rows(6, 4_000, table=table_20k, chunk_evens=chunk_evens) == base


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=3, max_value=10_000).map(lambda n: 2 * n),
       st.integers(min_value=0, max_value=40))
def test_comet_rows_match_census_at_sampled_targets(table_20k, two_n, span):
    hi = min(two_n + 2 * span, 20_000)
    rows = comet_rows(two_n, hi, table=table_20k, chunk_evens=7)
    assert [row[0] for row in rows] == list(range(two_n, hi + 1, 2))
    for t2, r, s, a_count, b_count in rows:
        c = census(EvenTarget(t2), table_20k)
        assert (r, a_count, b_count) == (c.goldbach_count, c.a_count, c.b_count)
        assert s == _split(t2, table_20k).s


def test_comet_spot_rows(table_1k):
    assert comet_rows(10, 10, table=table_1k) == [(10, 2, 2, 1, 1)]
    assert comet_rows(16, 16, table=table_1k) == [(16, 2, 5, 3, 0)]
    assert comet_rows(100, 100, table=table_1k) == [(100, 6, 23, 19, 5)]


# ---------------------------------------------------------------------------
# internal range helpers
# ---------------------------------------------------------------------------


def test_odd_factor_lists_against_trial_division(table_20k):
    facs = _odd_factor_lists(6, 4_000, table_20k)
    for i, fac in enumerate(facs):
        two_n = 6 + 2 * i
        want = sorted(q for q in factorize_td(two_n) if q != 2)
        assert sorted(fac) == want, two_n


def test_chunk_ranges_carry_pi_of_split_size(table_1k):
    for two_n, _, pi in _chunk_ranges(6, 900, 1, table_1k):
        a, b = split_td(two_n)
        assert pi == len(a) + len(b)


def test_companion_range_claim_agrees_with_full_records(table_20k):
    ranged = range_verify(
        8, 2_000, claims=(ClaimId.COMPANION_DECOMPOSES,), table=table_20k
    )[0]
    assert ranged.status == "pass"
    total = sum(_split(two_n, table_20k).s for two_n in range(8, 2_001, 2))
    assert ranged.payload["a_primes_checked"] == total


@functools.lru_cache
def _a_primes_td(lo, hi):
    """The sum over 2N in [lo, hi], 6 aside, of s(2N) = pi(2N - 3) -
    omega_odd(2N), each term recounted by trial division."""
    pi = list(accumulate(map(is_prime_td, range(1, hi, 2))))  # up to 1, 3, 5, ...
    return sum(pi[(two_n - 3) >> 1] - sum(1 for q in factorize_td(two_n) if q != 2)
               for two_n in range(max(lo, 8), hi + 1, 2))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("chunk_evens", [1, 3, 64, 8192])
def test_companion_sums_equal_the_per_target_count(table_100k, chunk_evens, workers):
    """On a table with no departures the companions kernel counts a chunk's
    A-primes as sum(pi) - sum(omega).  The run's total equals the per-target
    sum of s, and, in process, each chunk's partial equals the one that the
    per-target byte windows give, which a departure forces: one past the
    chunk, which no kernel reads."""
    lo, hi = 6, 20_000
    (out,) = range_verify(lo, hi, claims=(ClaimId.COMPANION_DECOMPOSES,),
                          table=table_100k, workers=workers, chunk_evens=chunk_evens)
    assert out.status == "boundary" and out.payload["boundary_cases"] == [{"two_n": 6}]
    assert out.payload["a_primes_checked"] == _a_primes_td(lo, hi)
    if workers == 1:
        for c_lo, c_hi, pi in _chunk_ranges(lo, hi, chunk_evens, table_100k):
            assert (_chunk_companions(_ChunkContext(c_lo, c_hi, pi, (), None, table_100k))
                    == _chunk_companions(_ChunkContext(c_lo, c_hi, pi, (c_hi + 1,), None,
                                                       table_100k))), (c_lo, c_hi)


def test_prime_power_and_pairing_hold_to_1e6():
    table = build_table(10**6 + 1)
    outs = range_verify(
        8,
        10**6,
        claims=(ClaimId.PRIME_POWER_EXCLUSION, ClaimId.PAIRING_NON_EMPTY),
        table=table,
    )
    by_id = {o.claim_id: o for o in outs}
    ppe = by_id[ClaimId.PRIME_POWER_EXCLUSION]
    assert ppe.status == "pass"
    assert ppe.payload["identities_inspected"] > 0
    pairing = by_id[ClaimId.PAIRING_NON_EMPTY]
    assert pairing.status == "pass"
    assert (
        pairing.payload["a_pair_evens"] + pairing.payload["b_self_evens"]
        == pairing.payload["evens_checked"]
    )


# ---------------------------------------------------------------------------
# bit-packed windows against the byte windows
# ---------------------------------------------------------------------------


def _bits(window: bytes) -> int:
    """One bit per byte of a 0/1 window, byte j to bit j."""
    return sum(1 << j for j, v in enumerate(window) if v)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_packed_btype_matches_btype_bytes(table_20k, data):
    c_hi = data.draw(st.integers(min_value=6, max_value=20_000).map(lambda n: n & ~1))
    k_max = (c_hi >> 1) - 2
    win = BitWindows(table_20k, c_hi)  # one window set: cached marks are reused
    odd = st.integers(min_value=1, max_value=k_max + 60).map(lambda i: 2 * i + 1)
    for _ in range(3):
        k = data.draw(st.integers(min_value=max(k_max - 500, 1), max_value=k_max))
        qs = tuple(data.draw(st.lists(
            st.one_of(st.just(3), st.sampled_from((31, 37, 2 * k + 1, 2 * k + 3)),
                      odd.filter(is_prime_td)),
            max_size=5, unique=True,
        ).map(sorted)))
        width = data.draw(st.integers(min_value=1, max_value=k))
        mask = (1 << width) - 1
        bmask = btype_bytes(k, qs)
        b, rb = win.btype(k, qs, mask)
        assert b == _bits(bmask) & mask, (k, qs, width)
        assert rb == _bits(bmask[::-1]) & mask, (k, qs, width)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=3, max_value=10_000).map(lambda n: 2 * n), st.data())
def test_packed_primes_match_prime_window(table_20k, two_n, data):
    c_hi = data.draw(st.integers(min_value=two_n >> 1, max_value=10_000)) * 2
    k = (two_n >> 1) - 2
    width = data.draw(st.integers(min_value=1, max_value=k))
    mask = (1 << width) - 1
    pwin = table_20k.odds(3, two_n - 3)
    pf, pr = BitWindows(table_20k, c_hi).primes(k, mask)
    assert pf == _bits(pwin) & mask
    assert pr == _bits(pwin[::-1]) & mask


# ---------------------------------------------------------------------------
# whole-chunk kernels against the scalar oracles
# ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_chunk_kernels_match_scalar_oracles(table_20k, data):
    lo = data.draw(st.one_of(
        st.sampled_from((6, 8)),
        st.integers(min_value=5, max_value=9_000).map(lambda n: 2 * n),
    ))
    hi = 2 * data.draw(st.integers(min_value=lo // 2, max_value=lo // 2 + 300))
    chunk_evens = data.draw(st.one_of(st.sampled_from((1, 2, 3, 64)),
                                      st.integers(min_value=1, max_value=400)))
    # flipped bits of small odds reach both failure branches of the scan
    flips = data.draw(st.lists(
        st.one_of(st.integers(min_value=1, max_value=40),
                  st.integers(min_value=1, max_value=hi // 2)),
        max_size=6,
    ))
    table = table_20k
    if flips:
        bits = bytearray(table.odd_bits)
        for i in flips:
            bits[i] ^= 1
        table = PrimeTable(table.limit, bytes(bits))
    chunks = _chunk_ranges(lo, hi, chunk_evens, table)
    assert chunks[0][0] == lo and chunks[-1][1] == hi
    departures = _departures(table, hi)
    cleared = _cleared(table, flips)
    for c_lo, c_hi, pi in chunks:
        facs = _odd_factor_lists(c_lo, c_hi, table)
        chunk = _ChunkContext(c_lo, c_hi, pi, departures, None, table)
        assert (_chunk_s_bound(chunk)
                == _counted(oracles.s_bound_chunk(c_lo, c_hi, facs, table,
                                                  bool(departures)), c_lo, c_hi))
        assert (_chunk_pair_scan(chunk)
                == _counted(oracles.pair_scan_chunk(c_lo, c_hi, table, True, True),
                            c_lo, c_hi))
        assert (_chunk_midpoint_coprime(chunk)
                == _counted(oracles.midpoint_coprime_chunk(c_lo, c_hi, table),
                            c_lo, c_hi))
        halo = _odd_factor_lists(c_lo - 4, c_hi + 4, table)
        assert (_chunk_midpoint_decomposes(chunk)
                == _counted(oracles.midpoint_decomposes_chunk(c_lo, c_hi, halo, table,
                                                              cleared), c_lo, c_hi))
        assert (_chunk_prime_power(chunk)
                == _counted(oracles.prime_power_chunk(c_lo, c_hi, table),
                            c_lo, c_hi))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=9_900).map(lambda n: 2 * n),
       st.integers(min_value=0, max_value=300))
def test_odd_factor_lists_on_random_ranges(table_20k, c_lo, span):
    c_hi = min(c_lo + 2 * span, 20_000)
    facs = _odd_factor_lists(c_lo, c_hi, table_20k)
    assert len(facs) == (c_hi - c_lo) // 2 + 1
    for i, fac in enumerate(facs):
        two_n = c_lo + 2 * i
        assert fac == sorted(q for q in factorize_td(two_n) if q != 2), two_n


_FIELDS = ("omega", "phi")


def _listed(lo, hi, table):
    """The record of the evens in [lo, hi] built from their factor lists."""
    return oracles.ListedFactors(lo, hi, _odd_factor_lists(lo, hi, table))


@functools.lru_cache
def _listed_to_2e5():
    table = build_table(200_010)
    return table, _listed(2, 200_004, table)


@pytest.mark.parametrize("chunk_evens", [1, 3, 64, 8192])
def test_fused_sieve_equals_the_listed_record_to_2e5(chunk_evens):
    """Every chunk halo of [6, 2e5], from the one at c_lo = 6 on, gets from
    the strides the fields its factor lists define.  omega comes from the log
    pass, which gives None on the named fallback halos alone, and from the
    division pass that builds phi; on one-target chunks the one-even window
    that s_bound reads agrees too.  The lists do not depend on the bounds, so
    one listed record, sliced, stands for each halo's; ``lists`` itself is
    compared on the halo's own bounds, up to 2e4 for the one- and
    three-target chunks."""
    table, listed = _listed_to_2e5()
    whole = {name: getattr(listed, name) for name in _FIELDS}
    lists_up_to = 200_000 if chunk_evens >= 64 else 20_000
    chunks = _chunk_ranges(6, 200_000, chunk_evens, table)
    assert chunks[0][0] == 6
    fallbacks = []
    for c_lo, c_hi, _ in chunks:
        lo, hi = c_lo - 4, c_hi + 4
        want = {name: value[(lo - 2) >> 1 : hi >> 1] for name, value in whole.items()}
        log, divided = _passes(lo, hi, table.small_primes)
        assert divided == want["omega"], (lo, hi)
        if log is None:
            fallbacks.append((lo, hi))
        else:
            assert log == want["omega"], (lo, hi)
        record = functools.partial(_SievedFactors, lo, hi, table.small_primes)
        if chunk_evens == 1:
            assert record().omega_at(c_lo, c_lo) == want["omega"][2:3]
        sieved = record()
        for name in _FIELDS:
            assert getattr(sieved, name) == want[name], (name, lo, hi)
        if c_hi <= lists_up_to:
            assert sieved.lists == _odd_factor_lists(lo, hi, table), (lo, hi)
    assert fallbacks == _LOG_FALLBACKS[chunk_evens]


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=5 * 10**6 - 4), st.integers(0, 300),
       st.booleans())
def test_fused_sieve_equals_the_listed_record_to_1e7(table_1e7, h, span, phi_first):
    """Random halos up to 1e7, omega read before phi or after it."""
    lo, hi = 2 * h, min(2 * (h + span), 10**7)
    sieved = _SievedFactors(lo, hi, table_1e7.small_primes)
    listed = _listed(lo, hi, table_1e7)
    names = ("phi", "omega") if phi_first else ("omega", "phi")
    assert [getattr(sieved, n) for n in names] == [getattr(listed, n) for n in names]
    for name in _FIELDS:
        assert getattr(sieved, name) == getattr(listed, name), (name, lo, hi)
    assert sieved.lists == listed.lists
    assert list(sieved.omega) == [sum(1 for q in factorize_td(two_n) if q != 2)
                                  for two_n in range(lo, hi + 1, 2)]


# ---------------------------------------------------------------------------
# window kernels against the bit-window oracles
# ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_window_kernels_match_bit_window_oracles(table_20k, data):
    lo = data.draw(st.one_of(
        st.sampled_from((6, 8)),
        st.integers(min_value=5, max_value=9_000).map(lambda n: 2 * n),
    ))
    hi = 2 * data.draw(st.integers(min_value=lo // 2, max_value=lo // 2 + 300))
    chunk_evens = data.draw(st.one_of(st.sampled_from((1, 2, 3, 64)),
                                      st.integers(min_value=1, max_value=400)))
    flips = data.draw(st.lists(
        st.one_of(st.integers(min_value=1, max_value=40),
                  st.integers(min_value=1, max_value=hi // 2 - 1)),
        max_size=6,
    ))
    table = table_20k
    if flips:
        bits = bytearray(table.odd_bits)
        for i in flips:
            bits[i] ^= 1
        table = PrimeTable(table.limit, bytes(bits))
    departures = _departures(table, hi)
    cleared = _cleared(table, flips)
    digits, w = _pair_count_digits(table.odd_bits, lo, hi)
    for c_lo, c_hi, pi in _chunk_ranges(lo, hi, chunk_evens, table):
        facs = _odd_factor_lists(c_lo, c_hi, table)
        want = oracles.comet_chunk(c_lo, c_hi, pi, facs, table, bool(departures))
        chunk_digits = digits[(c_lo - lo) // 2 * w : (c_hi - lo + 2) // 2 * w]
        chunk = _ChunkContext(c_lo, c_hi, pi, departures, None, table)
        assert (_chunk_same_type(chunk)
                == _counted(oracles.same_type_chunk(c_lo, c_hi, facs, table),
                            c_lo, c_hi))
        assert (_chunk_companions(chunk)
                == _counted(oracles.companions_chunk(c_lo, c_hi, facs, table,
                                                     cleared), c_lo, c_hi))
        halo = _odd_factor_lists(c_lo - 4, c_hi + 4, table)
        assert (_chunk_midpoint_decomposes(chunk)
                == _counted(oracles.midpoint_decomposes_chunk(
                    c_lo, c_hi, halo, table, cleared), c_lo, c_hi))
        assert _chunk_comet(chunk) == want
        assert _chunk_comet(_ChunkContext(c_lo, c_hi, pi, departures, chunk_digits,
                                          table)) == want


@pytest.mark.parametrize("lo, hi, squared", [
    (8, 100_000, True), (2_000, 20_000, True), (99_000, 99_020, False),
    (6, 6, False), (50_000, 50_000, False),
])
def test_comet_rows_take_r_from_the_square_or_the_windows(table_100k, monkeypatch,
                                                          lo, hi, squared):
    calls = []
    real = claims_mod._pair_count_digits

    def recorded(*args):
        calls.append(args[1:])
        return real(*args)

    monkeypatch.setattr(claims_mod, "_pair_count_digits", recorded)
    rows = comet_rows(lo, hi, table=table_100k)
    assert calls == ([(lo, hi)] if squared else [])
    if hi - lo <= 20_000:
        assert rows == oracles.comet_chunk(lo, hi, pi_upto(lo - 3, table_100k) - 1,
                                           _odd_factor_lists(lo, hi, table_100k),
                                           table_100k)
    # a build without the C decimal module takes every r from the windows
    monkeypatch.setattr(claims_mod, "_decimal", None)
    assert comet_rows(lo, hi, table=table_100k, chunk_evens=4_096) == rows
    assert len(calls) == squared


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=3, max_value=10_000).map(lambda n: 2 * n), st.data())
def test_pair_count_digits_give_r_on_flipped_tables(table_20k, hi, data):
    lo = 2 * data.draw(st.integers(min_value=3, max_value=hi // 2))
    flips = data.draw(st.lists(st.integers(min_value=0, max_value=hi // 2), max_size=8))
    bits = bytearray(table_20k.odd_bits[: hi // 2 + 1])
    for i in flips:
        bits[i] ^= 1
    digits, w = _pair_count_digits(bytes(bits), lo, hi)
    assert len(digits) == w * ((hi - lo) // 2 + 1)
    targets = range(lo, hi + 1, 2)
    sample = {lo, hi, *data.draw(st.lists(st.sampled_from(targets), max_size=20))}
    for two_n in sorted(sample):
        j = (two_n - lo) // 2
        n = two_n // 2
        c = int(digits[j * w : j * w + w])
        want = sum(1 for a in range(3, n + 1, 2)
                   if bits[a >> 1] and bits[(two_n - a) >> 1])
        assert (c + (n % 2 and bits[n >> 1])) // 2 == want, two_n
        assert _window_rs(_one_target(two_n, bytes(bits))) == [want], two_n


def _one_target(two_n, bits):
    """The chunk context of the one target 2N on the bitmap ``bits``."""
    table = PrimeTable(2 * len(bits) - 1, bits)
    return _ChunkContext(two_n, two_n, 0, (), None, table)


def test_one_target_window_rs_is_r_on_every_target(table_20k):
    bits = table_20k.odd_bits
    odd_primes = [2 * i + 1 for i in range(1, 10_000) if bits[i]]
    r = [0] * 20_001
    for j, p in enumerate(odd_primes):
        for q in odd_primes[j:]:
            if p + q > 20_000:
                break
            r[p + q] += 1
    assert [_window_rs(_one_target(t, bits)) for t in range(6, 20_001, 2)] == [
        [r[t]] for t in range(6, 20_001, 2)]
