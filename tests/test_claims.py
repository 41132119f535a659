import math
import multiprocessing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goldbach_ab import (
    ALL_CLAIMS,
    ClaimId,
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
from goldbach_ab.claims import (
    _odd_factor_lists,
    _pi_odd_upto,
    claim_goldbach_witness,
    claim_midpoint_outcomes,
    claim_pairing_non_empty,
    claim_companion_decomposes,
)
from goldbach_ab.partition import PartitionKind, goldbach_partitions

from oracles import factorize_td, is_prime_td, midpoints_td, split_td

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


def _doctor_factor_lists(monkeypatch, even, q):
    """Make every chunk factor sieve that covers ``even`` also list prime q."""
    real = claims_mod._odd_factor_lists

    def doctored(c_lo, c_hi, table):
        facs = real(c_lo, c_hi, table)
        if c_lo <= even <= c_hi:
            i = (even - c_lo) >> 1
            facs[i] = sorted(facs[i] + [q])
        return facs

    monkeypatch.setattr(claims_mod, "_odd_factor_lists", doctored)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("chunk_evens", [1, 2, 3, 8192])
@pytest.mark.parametrize(
    "v, q", [(25, 3), (25, 23), (45, 23), (1001, 167), (1025, 3)]
)
def test_range_midpoint_decomposes_reports_doctored_factor(
    table_20k, monkeypatch, v, q, chunk_evens, workers
):
    if workers > 1 and multiprocessing.get_start_method() != "fork":
        pytest.skip("the doctored sieve reaches pool workers only under fork")
    assert not is_prime_td(v)
    listed = sorted([*factorize_td(v), q])
    # Brute force: the four targets with flanker v, ascending; the first one
    # some listed factor divides is the smallest failure.
    want = None
    for n in (v - 2, v - 1, v + 1, v + 2):
        two_n = 2 * n
        assert v in midpoints_td(two_n)
        shared = [p for p in listed if two_n % p == 0]
        if shared:
            want = {"two_n": two_n, "value": v, "shared_prime": shared[0]}
            break
    assert want is not None
    _doctor_factor_lists(monkeypatch, 2 * v, q)
    out = range_verify(6, 2_100, claims=(ClaimId.MIDPOINT_DECOMPOSES,),
                       workers=workers, table=table_20k, chunk_evens=chunk_evens)[0]
    assert out.status == "fail"
    assert out.payload["counterexample"] == want


def test_range_verify_usage_errors(table_1k):
    with pytest.raises(UsageError):
        range_verify(7, 9, table=table_1k)
    with pytest.raises(UsageError):
        range_verify(10, 8, table=table_1k)
    with pytest.raises(UsageError):
        range_verify(4, 8, table=table_1k)
    with pytest.raises(UsageError):
        range_verify(8, 10, workers=0, table=table_1k)
    with pytest.raises(UsageError):
        range_verify(8, 5_000, table=table_1k)  # table too small


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


def test_pi_odd_upto_matches_split_size(table_1k):
    for two_n in range(6, 900, 2):
        a, b = split_td(two_n)
        assert _pi_odd_upto(two_n - 3, table_1k) == len(a) + len(b)


def test_companion_range_claim_agrees_with_full_records(table_20k):
    ranged = range_verify(
        8, 2_000, claims=(ClaimId.COMPANION_DECOMPOSES,), table=table_20k
    )[0]
    assert ranged.status == "pass"
    total = sum(_split(two_n, table_20k).s for two_n in range(8, 2_001, 2))
    assert ranged.payload["a_primes_checked"] == total


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
