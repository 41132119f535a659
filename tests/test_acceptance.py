"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to watch the per-criterion
lines stream; the full module takes a few minutes because criteria 2 and 5
sweep every even number up to 10**7.
"""

import time
from itertools import chain

import numpy as np
import pytest

from goldbach_ab import (
    ClaimId,
    EvenTarget,
    build_table,
    comet_rows,
    companions,
    census,
    goldbach_partitions,
    range_verify,
    split_primes,
)
from goldbach_ab.cli import main
from goldbach_ab.partition import (
    PartitionKind,
    partition_total,
)
from goldbach_ab.sieve import pi_upto

from oracles import brute_force_goldbach_count

WORKERS = 4


@pytest.fixture(scope="module")
def table_2e5():
    return build_table(2 * 10**5 + 1)


@pytest.fixture(scope="module")
def table_1e5():
    return build_table(10**5 + 1)


@pytest.fixture(scope="module")
def table_1m():
    return build_table(10**6 + 1)


@pytest.fixture(scope="module")
def table_10m():
    return build_table(10**7 + 1)


def _report(num: int, detail: str, elapsed: float) -> None:
    print(f"[acceptance] criterion {num}: PASS ({elapsed:.1f}s) {detail}")


def test_criterion_1_same_type_lemma_exhaustive(table_2e5):
    t0 = time.perf_counter()
    (out,) = range_verify(
        6, 2 * 10**5, claims=(ClaimId.SAME_TYPE_LEMMA,), workers=1, table=table_2e5
    )
    elapsed = time.perf_counter() - t0
    assert out.status == "pass", out.payload
    assert out.payload["evens_checked"] == (2 * 10**5 - 6) // 2 + 1
    assert out.payload["mixed_total"] == 0
    assert elapsed < 120.0, f"same-type sweep took {elapsed:.1f}s"
    _report(1, f"no mixed partition for any even in [6, 2e5] "
               f"({out.payload['evens_checked']} evens)", elapsed)


def test_criterion_2_s_bound_to_1e7(table_10m):
    t0 = time.perf_counter()
    (out,) = range_verify(
        8, 10**7, claims=(ClaimId.S_BOUND,), workers=WORKERS, table=table_10m
    )
    elapsed = time.perf_counter() - t0
    assert out.status == "pass", out.payload
    assert out.payload["evens_checked"] == (10**7 - 8) // 2 + 1
    assert out.payload["min_s"] == {"s": 2, "two_n": 8}
    assert elapsed < 450.0, f"s-bound sweep took {elapsed:.1f}s"

    (boundary,) = range_verify(
        6, 6, claims=(ClaimId.S_BOUND,), workers=1, table=table_10m
    )
    assert boundary.status == "boundary"
    assert boundary.payload["boundary_cases"] == [{"two_n": 6, "s": 0}]
    _report(2, f"s >= 2 for every even in [8, 1e7]; min s=2 at 2N=8; "
               f"2N=6 boundary with s=0", elapsed)


def test_criterion_3_companion_invariants(table_1e5):
    t0 = time.perf_counter()
    (out,) = range_verify(
        8, 10**5, claims=(ClaimId.COMPANION_DECOMPOSES,), workers=WORKERS,
        table=table_1e5,
    )
    assert out.status == "pass", out.payload
    assert out.payload["evens_checked"] == (10**5 - 8) // 2 + 1
    assert out.payload["a_primes_checked"] > 0

    # deep route: build the full exponent vectors and re-verify them
    deep_records = 0
    for two_n in chain(range(8, 3_000, 2), (10**4, 50_002, 99_998)):
        t = EvenTarget(two_n)
        split = split_primes(t, table_1e5)
        for rec in companions(t, split, table_1e5):
            assert rec.exps.value() == rec.companion
            assert rec.exps.exponent_at(split.a_primes.index(rec.p)) == 0
            deep_records += 1
    elapsed = time.perf_counter() - t0
    _report(3, f"every companion of an A-prime over [8, 1e5] is A-type with "
               f"zero self-exponent ({out.payload['a_primes_checked']} window "
               f"checks, {deep_records} exponent vectors rebuilt)", elapsed)


def test_criterion_4_midpoints_to_1e6(table_1m):
    t0 = time.perf_counter()
    outs = range_verify(
        8, 10**6,
        claims=(ClaimId.MIDPOINT_COPRIME, ClaimId.MIDPOINT_DECOMPOSES),
        workers=WORKERS,
        table=table_1m,
    )
    elapsed = time.perf_counter() - t0
    by_id = {o.claim_id: o for o in outs}
    cop = by_id[ClaimId.MIDPOINT_COPRIME]
    dec = by_id[ClaimId.MIDPOINT_DECOMPOSES]
    assert cop.status == "pass", cop.payload
    assert dec.status == "pass", dec.payload
    want = (10**6 - 8) // 2 + 1
    assert cop.payload["evens_checked"] == want
    assert dec.payload["evens_checked"] == want
    assert dec.payload["both_prime_pairs"] > 0
    _report(4, f"midpoints coprime and A-decomposable for every even in "
               f"[8, 1e6]; {dec.payload['both_prime_pairs']} evens had both "
               f"midpoints prime (verified as Goldbach partitions)", elapsed)


def test_criterion_5_goldbach_witness_to_1e7(table_10m):
    t0 = time.perf_counter()
    (out,) = range_verify(
        8, 10**7, claims=(ClaimId.GOLDBACH_WITNESS,), workers=WORKERS,
        table=table_10m,
    )
    elapsed = time.perf_counter() - t0
    assert out.status == "pass", out.payload
    checked = (10**7 - 8) // 2 + 1
    assert out.payload["evens_checked"] == checked
    assert out.payload["a_pair_evens"] + out.payload["b_self_evens"] == checked
    # frozen from an independent smallest-prime scan of the same range
    assert out.payload["max_smallest_prime"]["p"] == 751
    assert elapsed < 900.0, f"witness sweep took {elapsed:.1f}s"
    _report(5, f"every even in [8, 1e7] has a Goldbach partition; hardest "
               f"target needed smallest prime {out.payload['max_smallest_prime']}",
            elapsed)


def _np_btype_pairs(table, lo, hi):
    """Brute-force oracle: pair kinds from primality plus per-side gcd."""
    ispo = np.frombuffer(table.odd_bits, dtype=np.uint8)
    out = {}
    for two_n in range(lo, hi + 1, 2):
        n = two_n >> 1
        h = (two_n - 6) // 4 + 1
        fwd = ispo[1 : 1 + h]
        rev = ispo[n - 1 - h : n - 1][::-1]
        idx = np.nonzero(fwd & rev)[0]
        if idx.size == 0:
            out[two_n] = []
            continue
        av = 3 + 2 * idx
        ga = np.gcd(av, two_n)
        gb = np.gcd(two_n - av, two_n)
        # the same-type rule, re-checked on the oracle route
        assert not ((ga > 1) != (gb > 1)).any(), two_n
        out[two_n] = [(int(a), two_n - int(a)) for a in av[(ga > 1) & (gb > 1)]]
    return out


def test_criterion_6_btype_pair_characterization(table_1e5):
    t0 = time.perf_counter()
    lo, hi = 6, 10**5
    oracle = _np_btype_pairs(table_1e5, lo, hi)
    b_pair_evens = 0
    for two_n in range(lo, hi + 1, 2):
        t = EvenTarget(two_n)
        impl = [
            (g.a, g.b)
            for g in goldbach_partitions(t, table_1e5)
            if g.kind is PartitionKind.B
        ]
        n = two_n // 2
        predicted = (
            [(n, n)] if n % 2 == 1 and table_1e5.odd_bits[n >> 1] else []
        )
        assert impl == oracle[two_n] == predicted, two_n
        if impl:
            b_pair_evens += 1
    elapsed = time.perf_counter() - t0
    assert b_pair_evens == pi_upto(hi // 2, table_1e5) - 1  # odd primes N in range
    _report(6, f"B-type Goldbach pairs on [6, 1e5] are exactly the self pairs "
               f"(p, p) with 2N = 2p; {b_pair_evens} such evens, matching the "
               f"brute-force oracle", elapsed)


def test_criterion_7_spot_values_and_census_totals(table_1e5):
    t0 = time.perf_counter()
    rows = comet_rows(6, 10**5, workers=1, table=table_1e5)
    for two_n, r, s, a_count, b_count in rows:
        assert a_count + b_count == partition_total(two_n), two_n
    by_two_n = {row[0]: row for row in rows}
    assert by_two_n[10][1] == 2
    assert by_two_n[16][1] == 2
    assert by_two_n[100][1] == 6
    # spot the comet rows against the census and the partition-scan oracle
    for two_n in (10, 16, 100, 5_000, 99_998):
        t = EvenTarget(two_n)
        c = census(t, table_1e5)
        assert by_two_n[two_n][1] == c.goldbach_count
        assert by_two_n[two_n][3] == c.a_count
        assert by_two_n[two_n][4] == c.b_count
        assert c.goldbach_count == brute_force_goldbach_count(t, table_1e5)
    elapsed = time.perf_counter() - t0
    _report(7, "r(10)=2, r(16)=2, r(100)=6; census totals match "
               "(2N-6)//4 + 1 on all of [6, 1e5]", elapsed)


def test_criterion_8_comet_determinism(tmp_path):
    t0 = time.perf_counter()
    outputs = []
    for workers in (1, 2, 8):
        path = tmp_path / f"comet_{workers}.csv"
        code = main(
            ["comet", "8", "10000", "--workers", str(workers), "--out", str(path)]
        )
        assert code == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    assert outputs[0].startswith(b"two_n,r,s,a_count,b_count\n8,1,2,1,0\n")
    elapsed = time.perf_counter() - t0
    _report(8, "comet 8 10000 output byte-identical for 1, 2 and 8 workers",
            elapsed)
