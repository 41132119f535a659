"""The prime table is its bitmap; its primes up to sqrt(limit) come from a
fresh sieve.

No library or CLI route may build the tuple of every prime below the limit;
tables pickle without it, so spawned pool workers receive the bitmap alone
and must reproduce the in-process results; and a census CSV row is the
comet row of its target, whose counts the census JSON prints too.
"""

import contextlib
import io
import json
import math
import multiprocessing
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import goldbach_ab.claims as claims_mod
from goldbach_ab import (
    EvenTarget,
    build_table,
    census,
    cli,
    comet_rows,
    factorize,
    primes_in,
    range_verify,
    split_primes,
)
from goldbach_ab.partition import partition_total
from goldbach_ab.sieve import PrimeTable

from oracles import doctored_same_type_td, factorize_td, primes_td
from test_claims import _DOCTORED_EVENS, _doctor_factor_lists, _listed_with


class _NoListTable(PrimeTable):
    """A sieved table whose full prime tuple must never be built."""

    @property
    def prime_list(self):
        raise AssertionError("the full prime tuple was built")


def _no_list_table(limit, *_):
    table = build_table(limit)
    return _NoListTable(table.limit, table.odd_bits)


def _run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def test_no_library_route_builds_the_prime_tuple(table_20k):
    table = _no_list_table(table_20k.limit)
    assert ([o.as_dict() for o in range_verify(6, 20_000, table=table)]
            == [o.as_dict() for o in range_verify(6, 20_000, table=table_20k)])
    assert (comet_rows(6, 20_000, table=table)
            == comet_rows(6, 20_000, table=table_20k))
    for n in (1, 2, 12, 9_991, 19_997, 20_001, 3 * 19_997, 19_997**2):
        assert factorize(n, table).as_dict() == factorize_td(n), n
    assert primes_in(2, table.limit, table) == primes_td(table.limit)
    t = EvenTarget(19_998)
    assert split_primes(t, table) == split_primes(t, table_20k)


@pytest.mark.parametrize("argv", [
    ["census", "30030", "--format", "csv"],
    ["census", "30030"],
    ["verify", "6", "4000", "--all"],
    ["comet", "6", "4000"],
    ["analyze", "2002"],
])
def test_cli_routes_do_not_build_the_prime_tuple(monkeypatch, argv):
    want = _run(argv)
    monkeypatch.setattr(cli, "build_table", _no_list_table)
    monkeypatch.setattr(claims_mod, "build_table", _no_list_table)
    assert _run(argv) == want


@settings(max_examples=60, deadline=None)
@given(lo=st.integers(min_value=0, max_value=20_000), width=st.integers(0, 600),
       flips=st.lists(st.integers(min_value=1, max_value=10_000), max_size=4))
def test_odd_primes_read_the_candidate_list(table_20k, lo, width, flips):
    hi = min(lo + width, table_20k.limit)
    real = table_20k.prime_list
    assert list(table_20k.odd_primes(lo, hi)) == [p for p in real
                                                  if p > 2 and lo <= p <= hi]
    # on flipped bits the odd primes are the marked odds, while the small
    # primes stay a fresh sieve's
    bits = bytearray(table_20k.odd_bits)
    for i in flips:
        bits[i] ^= 1
    flipped = PrimeTable(table_20k.limit, bytes(bits))
    assert list(flipped.odd_primes(lo, hi)) == [
        m for m in range(max(lo, 3) | 1, hi + 1, 2) if bits[m >> 1]]
    assert flipped.prime_list == (2, *flipped.odd_primes(3, flipped.limit))
    assert flipped.small_primes == table_20k.small_primes


@pytest.mark.parametrize("limit", [2, 3, 8, 9, 24, 25, 26, 10_000, 10_201])
def test_small_primes_are_2_and_the_odd_primes_to_the_root(limit):
    table = build_table(limit)
    want = (2, *(p for p in primes_td(math.isqrt(limit)) if p > 2))
    assert table.small_primes == want
    # every bit flipped: no bit of the table changes them
    inverted = PrimeTable(limit, bytes(1 - b for b in table.odd_bits))
    assert inverted.small_primes == want


def test_tables_pickle_without_the_prime_tuple():
    table = build_table(10_001)
    size = len(pickle.dumps(table))
    for read in (False, True):  # before and after prime_list is first read
        if read:
            assert table.prime_list == tuple(primes_td(10_001))
        data = pickle.dumps(table)
        assert len(data) == size  # the derived tuple stays behind
        back = pickle.loads(data)
        assert back == table and back._fields == ("limit", "odd_bits")
        assert "prime_list" not in vars(back)
        assert back.prime_list == table.prime_list
    bits = bytearray(table.odd_bits)
    bits[27 >> 1] = 1
    doctored = PrimeTable(table.limit, bytes(bits))
    back = pickle.loads(pickle.dumps(doctored))
    assert back == doctored and back.odd_bits == bytes(bits)
    assert list(back.odd_primes(20, 30)) == [23, 27, 29]


def test_spawn_workers_match_in_process(table_20k, monkeypatch):
    """Pools under spawn and under forkserver, the default start method on
    Linux from Python 3.14, give the in-process output."""
    want = [o.as_dict() for o in range_verify(8, 20_000, table=table_20k)]
    rows = comet_rows(8, 20_000, table=table_20k)
    for method in ("spawn", "forkserver"):
        monkeypatch.setattr(claims_mod, "multiprocessing",
                            multiprocessing.get_context(method))
        # 4 chunks, so that 2 workers get 2 chunks each and the pool starts
        got = range_verify(8, 20_000, workers=2, table=table_20k, chunk_evens=2_500)
        assert [o.as_dict() for o in got] == want, method
        assert comet_rows(8, 20_000, workers=2, table=table_20k,
                          chunk_evens=2_500) == rows, method


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=3, max_value=10_000).map(lambda n: 2 * n))
def test_census_csv_is_the_census_row(two_n):
    t = EvenTarget(two_n)
    table = build_table(two_n + 1)
    cen = census(t, table)
    s = split_primes(t, table).s
    assert _run(["census", str(two_n), "--format", "csv"]) == (0, (
        "two_n,r,s,a_count,b_count\n"
        f"{two_n},{cen.goldbach_count},{s},{cen.a_count},{cen.b_count}\n"
    ))


@pytest.mark.parametrize("two_n, q", _DOCTORED_EVENS)
def test_census_exits_1_on_a_doctored_factor(monkeypatch, two_n, q):
    _, mixed = doctored_same_type_td(two_n, _listed_with(two_n, q))
    _doctor_factor_lists(monkeypatch, two_n, q)
    code, out = _run(["census", str(two_n), "--format", "csv"])
    row_two_n, _, _, a_count, b_count = map(int, out.splitlines()[1].split(","))
    assert code == 1
    assert row_two_n == two_n
    assert partition_total(two_n) - a_count - b_count == mixed > 0
    # the JSON counts come from the same row, so they agree with the exit code
    code, out = _run(["census", str(two_n), "--format", "json"])
    doc = json.loads(out)
    assert code == 1
    assert (doc["a_count"], doc["b_count"]) == (a_count, b_count)
    assert doc["mixed_count"] == doc["total"] - a_count - b_count == mixed
