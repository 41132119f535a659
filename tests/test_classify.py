
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goldbach_ab import (
    EvenTarget,
    NumberClass,
    UsageError,
    build_table,
    classify_odd,
    factorize_even,
    primes_in,
    split_primes,
)
from goldbach_ab.classify import btype_window
from goldbach_ab.sieve import PrimeTable

from oracles import (
    classify_odd_by_factors,
    is_prime_td,
    number_class_factors,
    number_class_gcd,
    split_td,
)

evens = st.integers(min_value=3, max_value=10_000).map(lambda n: 2 * n)


@pytest.mark.parametrize("bad", [7, 9, 4, 2, 0, -6])
def test_even_target_rejects_bad_input(bad):
    with pytest.raises(UsageError):
        EvenTarget(bad)


def test_factorize_even_examples(table_1k):
    f12 = factorize_even(EvenTarget(12), table_1k)
    assert (f12.m, f12.b_factors.as_dict()) == (2, {3: 1})
    f16 = factorize_even(EvenTarget(16), table_1k)
    assert (f16.m, f16.b_factors.as_dict()) == (4, {})
    f90 = factorize_even(EvenTarget(90), table_1k)
    assert (f90.m, f90.b_factors.as_dict()) == (1, {3: 2, 5: 1})
    assert f90.value() == 90


def test_split_primes_examples(table_1k):
    s10 = split_primes(EvenTarget(10), table_1k)
    assert (s10.a_primes, s10.b_primes, s10.s) == ((3, 7), (5,), 2)
    s16 = split_primes(EvenTarget(16), table_1k)
    assert (s16.a_primes, s16.s) == ((3, 5, 7, 11, 13), 5)
    assert s16.b_primes == ()
    s6 = split_primes(EvenTarget(6), table_1k)
    assert (s6.a_primes, s6.b_primes, s6.s) == ((), (3,), 0)


def test_split_interval_is_strictly_open(table_1k):
    # 7 = 2N - 1 is prime for 2N = 8 but sits on the excluded endpoint
    s8 = split_primes(EvenTarget(8), table_1k)
    assert s8.a_primes == (3, 5)
    assert 7 not in s8.a_primes + s8.b_primes


def test_split_exhaustive_against_oracle(table_1k):
    for two_n in range(6, 600, 2):
        split = split_primes(EvenTarget(two_n), table_1k)
        want_a, want_b = split_td(two_n)
        assert list(split.a_primes) == want_a
        assert list(split.b_primes) == want_b
        assert split.s == len(want_a)


@settings(max_examples=80, deadline=None)
@given(evens)
def test_split_invariants(table_20k, two_n):
    split = split_primes(EvenTarget(two_n), table_20k)
    a, b = set(split.a_primes), set(split.b_primes)
    assert not a & b
    window = [
        q for q in range(3, two_n - 1, 2) if table_20k.odd_bits[q >> 1]
    ]
    assert a | b == set(window)
    assert split.s + len(split.b_primes) == len(window)
    assert all(two_n % q for q in a)
    assert all(two_n % q == 0 for q in b)


def test_classify_odd_examples(table_1k):
    assert classify_odd(9, EvenTarget(20), table_1k) is NumberClass.A
    assert classify_odd(9, EvenTarget(12), table_1k) is NumberClass.B
    assert classify_odd(3, EvenTarget(6), table_1k) is NumberClass.B


@pytest.mark.parametrize("m", [1, 2, 4, 19, 21, -3])
def test_classify_odd_rejects_out_of_window(table_1k, m):
    with pytest.raises(UsageError):
        classify_odd(m, EvenTarget(20), table_1k)


def test_gcd_and_factor_routes_agree_exhaustively(table_1k):
    for two_n in range(8, 400, 2):
        t = EvenTarget(two_n)
        for m in range(3, two_n - 2, 2):
            assert classify_odd(m, t, table_1k) is classify_odd_by_factors(
                m, t, table_1k
            ), (two_n, m)


@settings(max_examples=150, deadline=None)
@given(evens, st.data())
def test_gcd_route_matches_oracle_on_samples(table_20k, two_n, data):
    # odd m in [3, 2N-3]
    m = data.draw(
        st.integers(min_value=1, max_value=two_n // 2 - 2).map(lambda i: 2 * i + 1)
    )
    t = EvenTarget(two_n)
    got = classify_odd(m, t, table_20k).value
    assert got == number_class_gcd(m, two_n)
    assert got == number_class_factors(m, two_n)


def test_btype_window_matches_per_value_classification(table_1k):
    for two_n in range(6, 320, 2):
        t = EvenTarget(two_n)
        mask = btype_window(t, table_1k)
        assert len(mask) == t.window_len
        for i, flag in enumerate(mask):
            m = 3 + 2 * i
            want = classify_odd(m, t, table_1k) is NumberClass.B
            assert bool(flag) == want, (two_n, m)


def test_prime_window_matches_bitmap(table_1k):
    for two_n in (6, 8, 10, 100, 500):
        t = EvenTarget(two_n)
        win = table_1k.odds(3, two_n - 3)
        assert len(win) == t.window_len
        for i, flag in enumerate(win):
            assert bool(flag) == is_prime_td(3 + 2 * i)


def test_prime_window_requires_covering_table(table_1k):
    with pytest.raises(UsageError):
        table_1k.odds(3, 2_000 - 3)


def test_btype_window_matches_gcd_route_at_scale(table_100k):
    # full-window factor-route vs vectorized gcd-route, sampled up to 1e5
    np = pytest.importorskip("numpy")
    for two_n in range(6, 100_001, 1_954):
        t = EvenTarget(two_n)
        mask = np.frombuffer(btype_window(t, table_100k), dtype=np.uint8)
        odd_vals = 3 + 2 * np.arange(t.window_len)
        want = (np.gcd(odd_vals, two_n) > 1).astype(np.uint8)
        assert np.array_equal(mask, want), two_n


@pytest.mark.parametrize("flips", [(), (1, 4, 13, 27, 52, 300, 2_106, 9_000)])
def test_split_from_windows_is_the_gcd_split(table_20k, flips):
    """The split read off the B-type window is the gcd split of every 2N in
    [6, 2e4], on the true table and on one with the primes 3 and 601
    cleared and the composites 9, 27, 105, 4213 and 18001 marked."""
    np = pytest.importorskip("numpy")
    bits = bytearray(table_20k.odd_bits)
    for i in flips:
        bits[i] ^= 1
    table = PrimeTable(table_20k.limit, bytes(bits))
    marked = 2 * np.flatnonzero(np.frombuffer(bytes(bits), dtype=np.uint8)) + 1
    for two_n in range(6, 20_001, 2):
        qs = marked[: np.searchsorted(marked, two_n - 3, side="right")]
        coprime = np.gcd(qs, two_n) == 1
        want = tuple(qs[coprime].tolist()), tuple(qs[~coprime].tolist())
        split = split_primes(EvenTarget(two_n), table)
        assert (split.a_primes, split.b_primes, split.s) == (*want, len(want[0])), two_n


def test_split_past_a_doctored_limit_is_the_gcd_split():
    """Past the limit of a table with 53 cleared, the B-type window still
    marks the multiples of 53 for 2N = 2 * 53 * 59 and its neighbours: the
    odd primes of 2N come from a factorization that trusts no bit."""
    true = build_table(100)
    bits = bytearray(true.odd_bits)
    bits[53 >> 1] = 0
    table = PrimeTable(true.limit, bytes(bits))
    for two_n in range(6_200, 6_301, 2):
        marked = primes_in(3, two_n - 3, table)
        split = split_primes(EvenTarget(two_n), table)
        assert split.a_primes == tuple(q for q in marked if math.gcd(q, two_n) == 1)
        assert split.b_primes == tuple(q for q in marked if math.gcd(q, two_n) > 1)
