import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goldbach_ab import UsageError, build_table, factorize, is_prime, primes_in
from goldbach_ab.sieve import PrimeTable
import goldbach_ab.sieve as sieve_mod
from goldbach_ab.sieve import _is_prime_u64, pi_upto

from oracles import factorize_td, is_prime_td, primes_td, simple_sieve


def test_build_table_examples():
    assert build_table(10).prime_list == (2, 3, 5, 7)
    assert build_table(2).prime_list == (2,)
    assert len(build_table(100).prime_list) == 25


def test_build_table_rejects_tiny_limit():
    with pytest.raises(UsageError):
        build_table(1)


def test_build_table_rejects_empty_segments():
    with pytest.raises(UsageError, match="segment size must be >= 1"):
        build_table(10, segment_size=0)


@pytest.mark.skipif(not hasattr(os, "sysconf"), reason="no physical memory figure")
def test_build_table_rejects_a_bitmap_past_physical_memory(monkeypatch):
    def struck(*args):
        raise AssertionError("sieved before the memory check")

    monkeypatch.setattr(sieve_mod, "_strike_odds", struck)
    with pytest.raises(UsageError, match="bytes of physical memory"):
        build_table(1 << 70)


@pytest.mark.parametrize("limit", [2, 3, 4, 5, 17, 100, 541, 1000, 65_537])
def test_prime_list_matches_trial_division(limit):
    assert list(build_table(limit).prime_list) == primes_td(limit)


def test_prime_list_matches_independent_sieve_at_1e6():
    table = build_table(10**6)
    assert list(table.prime_list) == simple_sieve(10**6)


@pytest.mark.parametrize("segment", [1, 7, 64, 4096])
def test_segment_size_does_not_change_output(segment):
    default = build_table(50_000)
    segmented = build_table(50_000, segment_size=segment)
    assert segmented.odd_bits == default.odd_bits
    assert segmented.prime_list == default.prime_list


@settings(max_examples=200, deadline=None)
@given(limit=st.integers(min_value=2, max_value=6_000),
       segment=st.one_of(st.sampled_from((1, 2, 3, 64)),
                         st.integers(min_value=1, max_value=4_000)))
def test_bitmap_is_the_sieve_for_any_limit_and_segment(limit, segment):
    table = build_table(limit, segment_size=segment)
    primes = set(simple_sieve(limit))
    assert type(table.odd_bits) is bytes
    assert table.odd_bits == bytes(m in primes for m in range(1, limit + 1, 2))


def test_is_prime_examples(table_1k):
    assert not is_prime(1, table_1k)
    assert is_prime(97, table_1k)
    assert not is_prime(91, table_1k)  # 7 * 13
    assert is_prime(2, table_1k)
    assert not is_prime(0, table_1k)


def test_is_prime_beyond_table_limit(table_1k):
    # strong pseudoprime to several small bases: 151 * 751 * 28351
    assert not is_prime(3_215_031_751, table_1k)
    assert is_prime(2**61 - 1, table_1k)
    assert is_prime(2**64 - 59, table_1k)  # largest prime below 2**64
    assert not is_prime((2**31 - 1) ** 2, table_1k)


def test_is_prime_rejects_beyond_64_bits(table_1k):
    with pytest.raises(UsageError):
        is_prime(2**64, table_1k)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2_000_000))
def test_is_prime_agrees_with_trial_division(table_1k, n):
    assert is_prime(n, table_1k) == is_prime_td(n)


def test_deterministic_u64_test_on_oracle_range():
    for n in range(2, 5_000):
        assert _is_prime_u64(n) == is_prime_td(n), n


def test_primes_in_examples(table_1k):
    assert primes_in(90, 100, table_1k) == [97]
    assert primes_in(8, 10, table_1k) == []
    assert primes_in(2, 12, table_1k) == [2, 3, 5, 7, 11]


def test_odd_prime_bytes_end_at_hi(table_1k):
    # one byte per odd from max(lo, 3) | 1 to hi, for hi even and odd, within
    # the limit and past it
    for lo, hi in [(3, 10), (3, 11), (4, 1_000), (990, 999), (900, 1_100), (1, 1_101)]:
        odds = range(max(lo, 3) | 1, hi + 1, 2)
        want = bytes(is_prime_td(m) for m in odds)
        assert sieve_mod.odd_prime_bytes(lo, hi, table_1k) == want, (lo, hi)


def test_primes_in_rejects_reversed_window(table_1k):
    with pytest.raises(UsageError):
        primes_in(10, 9, table_1k)


def test_primes_in_beyond_limit_uses_segmented_window(table_1k):
    # windows past the limit, straddling it, and holding 2
    for lo, hi in [(100_000, 100_200), (900, 1_100), (997, 2_003), (1, 1_100)]:
        got = primes_in(lo, hi, table_1k)
        want = [p for p in simple_sieve(hi) if p >= lo]
        assert got == want, (lo, hi)


def test_primes_in_past_the_limit_trusts_no_bit():
    """With 53 cleared on a table of limit 100, a window past the limit is
    still struck with 53, so its multiples 9169 and 9487 are not listed."""
    true = build_table(100)
    bits = bytearray(true.odd_bits)
    bits[53 >> 1] = 0
    table = PrimeTable(true.limit, bytes(bits))
    got = primes_in(9_000, 9_500, table)
    assert 9_169 not in got and 9_487 not in got
    assert got == [p for p in simple_sieve(9_500) if p >= 9_000]
    for lo, hi in [(101, 2_000), (5_000, 10_000)]:
        assert primes_in(lo, hi, table) == [p for p in simple_sieve(hi) if p >= lo]


def test_primes_in_rejects_window_past_supported_width(table_1k):
    # sqrt(hi) beyond the table's base primes
    with pytest.raises(UsageError):
        primes_in(2, 1001**2, table_1k)


@settings(max_examples=60, deadline=None)
@given(lo=st.integers(min_value=0, max_value=20_000), width=st.integers(0, 500))
def test_primes_in_equals_filtered_prime_list(table_100k, lo, width):
    hi = lo + width
    got = primes_in(lo, hi, table_100k)
    assert got == [p for p in table_100k.prime_list if lo <= p <= hi]


def test_factorize_examples(table_1k):
    assert factorize(1, table_1k).as_dict() == {}
    assert factorize(12, table_1k).as_dict() == {2: 2, 3: 1}
    assert factorize(9991, table_1k).as_dict() == {97: 1, 103: 1}
    assert 97 * 103 == 9991


def test_factorize_rejects_nonpositive(table_1k):
    with pytest.raises(UsageError):
        factorize(0, table_1k)


def test_factorize_rejects_beyond_64_bits(table_1k):
    factorize(2**64 - 1, table_1k)
    with pytest.raises(UsageError, match="64-bit"):
        factorize(2**64, table_1k)


def test_factorize_reconstructs_everything_up_to_1e5(table_1k):
    # every factor must be prime by trial division and the product must rebuild n
    for n in range(1, 100_001):
        fac = factorize(n, table_1k)
        assert fac.value() == n
        for p, e in fac:
            assert e >= 1
            assert is_prime_td(p), (n, p)


def test_factorize_past_the_limit_trusts_no_bit():
    """With 53 cleared on a table of limit 100, trial division past the limit
    never tries 53, and the cofactor it leaves is split by rho, not taken as
    a prime."""
    true = build_table(100)
    bits = bytearray(true.odd_bits)
    bits[53 >> 1] = 0
    table = PrimeTable(true.limit, bytes(bits))
    assert factorize(5_459, table).as_dict() == {53: 1, 103: 1}
    for n in range(1, 12_000):
        assert factorize(n, table).as_dict() == factorize_td(n), n


def test_factorize_large_cofactors_with_small_table():
    table = build_table(100)
    p, q = 1_000_000_007, 1_000_000_009
    assert factorize(p * q, table).as_dict() == {p: 1, q: 1}
    assert factorize(p * p, table).as_dict() == {p: 2}
    assert factorize(2**61 - 1, table).as_dict() == {2**61 - 1: 1}
    assert factorize(3 * 5 * p, table).as_dict() == {3: 1, 5: 1, p: 1}


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=10**9))
def test_factorize_matches_trial_division(table_1k, n):
    assert factorize(n, table_1k).as_dict() == factorize_td(n)


def test_pi_upto_matches_oracle(table_1k):
    for x in [0, 1, 2, 3, 4, 5, 10, 97, 100, 541, 1000]:
        assert pi_upto(x, table_1k) == len(primes_td(x)), x


def test_pi_upto_rejects_past_the_table(table_1k):
    with pytest.raises(UsageError, match="exceeds table limit 1000"):
        pi_upto(1_001, table_1k)


def test_odd_bits_agree_with_prime_list(table_1k):
    listed = set(table_1k.prime_list)
    for n in range(1, table_1k.limit + 1, 2):
        assert (table_1k.odd_bits[n >> 1] == 1) == (n in listed)
