import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goldbach_ab import (
    ClaimId,
    EvenTarget,
    PartitionKind,
    UsageError,
    census,
    classify_partition,
    evaluate_claims,
    goldbach_partitions,
    midpoint_report,
    odd_partitions,
    pairing_report,
    split_primes,
)
from goldbach_ab.partition import (
    goldbach_pairs,
    kind_of_prime_pair,
    mirror_pair,
    partition_total,
    self_pair,
)
from goldbach_ab.sieve import PrimeTable, build_table

from oracles import brute_force_goldbach_count, census_td, is_prime_td, partitions_td

evens = st.integers(min_value=3, max_value=10_000).map(lambda n: 2 * n)


def test_odd_partitions_examples():
    assert list(odd_partitions(EvenTarget(10))) == [(3, 7), (5, 5)]
    assert list(odd_partitions(EvenTarget(8))) == [(3, 5)]
    assert list(odd_partitions(EvenTarget(6))) == [(3, 3)]
    assert list(odd_partitions(EvenTarget(20))) == [(3, 17), (5, 15), (7, 13), (9, 11)]


def test_partition_count_matches_closed_form():
    for two_n in range(6, 10_000, 2):
        pairs = list(odd_partitions(EvenTarget(two_n)))
        assert len(pairs) == partition_total(two_n)
        assert all(a + b == two_n and a % 2 and b % 2 and 3 <= a <= b for a, b in pairs)


def test_classify_partition_examples(table_1k):
    assert classify_partition(3, 7, EvenTarget(10), table_1k) is PartitionKind.A
    assert classify_partition(5, 5, EvenTarget(10), table_1k) is PartitionKind.B
    assert classify_partition(3, 9, EvenTarget(12), table_1k) is PartitionKind.B


@pytest.mark.parametrize("a,b", [(3, 8), (4, 6), (1, 9), (7, 3), (5, 7)])
def test_classify_partition_rejects_invalid(table_1k, a, b):
    with pytest.raises(UsageError):
        classify_partition(a, b, EvenTarget(10), table_1k)


def test_census_examples(table_1k):
    c10 = census(EvenTarget(10), table_1k)
    assert (c10.total, c10.a_count, c10.b_count, c10.mixed_count) == (2, 1, 1, 0)
    assert c10.goldbach_count == 2
    c16 = census(EvenTarget(16), table_1k)
    assert (c16.total, c16.a_count, c16.b_count, c16.mixed_count) == (3, 3, 0, 0)
    assert c16.goldbach_count == 2
    assert c16.goldbach_pairs == ((3, 13), (5, 11))
    c20 = census(EvenTarget(20), table_1k)
    assert (c20.total, c20.goldbach_count) == (4, 2)
    assert c20.goldbach_pairs == ((3, 17), (7, 13))


def test_census_against_oracle_exhaustively(table_1k):
    for two_n in range(6, 800, 2):
        got = census(EvenTarget(two_n), table_1k)
        want = census_td(two_n)
        assert got.total == want["total"]
        assert got.a_count == want["a_count"]
        assert got.b_count == want["b_count"]
        assert got.mixed_count == want["mixed"]
        assert list(got.goldbach_pairs) == want["pairs"]


@settings(max_examples=60, deadline=None)
@given(evens)
def test_census_against_oracle_sampled(table_20k, two_n):
    table = table_20k
    got = census(EvenTarget(two_n), table)
    want = census_td(two_n, prime=lambda v: table.odd_bits[v >> 1] == 1)
    assert got.a_count == want["a_count"]
    assert got.b_count == want["b_count"]
    assert got.mixed_count == want["mixed"]
    assert list(got.goldbach_pairs) == want["pairs"]
    assert got.a_count + got.b_count + got.mixed_count == got.total


def test_goldbach_partitions_examples(table_1k):
    g10 = goldbach_partitions(EvenTarget(10), table_1k)
    assert [(p.a, p.b, p.kind) for p in g10] == [
        (3, 7, PartitionKind.A),
        (5, 5, PartitionKind.B),
    ]
    g6 = goldbach_partitions(EvenTarget(6), table_1k)
    assert [(p.a, p.b, p.kind) for p in g6] == [(3, 3, PartitionKind.B)]
    g100 = goldbach_partitions(EvenTarget(100), table_1k)
    assert [(p.a, p.b) for p in g100] == [
        (3, 97), (11, 89), (17, 83), (29, 71), (41, 59), (47, 53)
    ]
    assert all(p.kind is PartitionKind.A for p in g100)


def test_goldbach_count_matches_brute_force(table_20k):
    for two_n in range(6, 3_000, 2):
        t = EvenTarget(two_n)
        assert census(t, table_20k).goldbach_count == brute_force_goldbach_count(
            t, table_20k
        )


def test_no_mixed_partition_in_small_range(table_20k):
    for two_n in range(6, 20_000, 2):
        assert census(EvenTarget(two_n), table_20k).mixed_count == 0, two_n


def test_btype_pairs_are_exactly_self_pairs(table_20k):
    for two_n in range(6, 2_000, 2):
        t = EvenTarget(two_n)
        got = [
            (p.a, p.b)
            for p in goldbach_partitions(t, table_20k)
            if p.kind is PartitionKind.B
        ]
        n = two_n // 2
        want = [(n, n)] if n % 2 == 1 and is_prime_td(n) else []
        assert got == want, two_n
        sp = self_pair(t, table_20k)
        assert ([sp] if sp else []) == want


def test_kind_of_prime_pair():
    assert kind_of_prime_pair(3, 7, 10) is PartitionKind.A
    assert kind_of_prime_pair(5, 5, 10) is PartitionKind.B
    # mixed cannot happen for even targets; exercise the tagging on a
    # synthetic odd target instead
    assert kind_of_prime_pair(3, 4, 15) is PartitionKind.MIXED


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_mirror_pair_reads_a_window_in_place(data):
    win = bytes(data.draw(st.lists(st.integers(0, 1), min_size=1, max_size=80)))
    h = data.draw(st.sampled_from((1, len(win))) | st.integers(1, len(win)))
    want = (int.from_bytes(win[:h], "little"), int.from_bytes(win[::-1][:h], "little"))
    assert mirror_pair(win, h) == want


@settings(max_examples=10, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=999), max_size=8))
def test_goldbach_pairs_read_flipped_tables(table_20k, flips):
    bits = bytearray(table_20k.odd_bits)
    for i in flips:
        bits[i] ^= 1
    table = PrimeTable(table_20k.limit, bytes(bits))
    for two_n in range(6, 2_001, 2):
        want = [(a, b) for a, b in partitions_td(two_n) if bits[a >> 1] and bits[b >> 1]]
        assert list(goldbach_pairs(two_n, table)) == want, two_n


@pytest.mark.parametrize("route", [census, goldbach_partitions])
def test_pair_routes_require_a_covering_table(route):
    table = build_table(1_001)
    route(EvenTarget(1_004), table)  # reaches 2N - 3 = 1001
    with pytest.raises(UsageError, match="does not cover the window of 2N=1006"):
        route(EvenTarget(1_006), table)


@pytest.mark.parametrize("route", [
    lambda t, split, table: pairing_report(t, split, table),
    lambda t, split, table: midpoint_report(t, split, table),
    lambda t, split, table: self_pair(EvenTarget(202), table),
    *(lambda t, split, table, c=c: evaluate_claims(t, table, (c,))
      for c in (ClaimId.PAIRING_NON_EMPTY, ClaimId.MIDPOINT_COPRIME,
                ClaimId.MIDPOINT_DECOMPOSES)),
], ids=["pairing_report", "midpoint_report", "self_pair", "pairing",
        "midpoint_coprime", "midpoint_decomposes"])
def test_single_target_reads_refuse_a_short_table(route):
    table = build_table(100)
    t = EvenTarget(1_000)
    split = split_primes(t, table)  # sieves past the limit on purpose
    (s_bound,) = evaluate_claims(t, table, (ClaimId.S_BOUND,))
    assert s_bound.status == "pass"
    with pytest.raises(UsageError, match="exceeds table limit 100"):
        route(t, split, table)
