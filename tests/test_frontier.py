"""Published constants the detector must reproduce.

Every other oracle in the suite re-derives the claims from the same
definitions; these numbers come from the literature instead.

- pi(10^k) for k = 1..7: OEIS A006880.
- The record minimal Goldbach primes up to 4e6: the even numbers 2N whose
  smallest prime p with 2N - p prime exceeds that of every smaller even
  (OEIS A025018 lists the 2N, A025019 the p; Oliveira e Silva, Herzog and
  Pardi, Math. Comp. 83 (2014), carry the list to 4e18).
"""

from goldbach_ab import ClaimId, range_verify
from goldbach_ab.sieve import pi_upto

PI_POWERS_OF_TEN = (4, 25, 168, 1_229, 9_592, 78_498, 664_579)

# (p, 2N) for every record setter up to 4e6
RECORD_SETTERS = (
    (3, 6), (5, 12), (7, 30), (19, 98), (23, 220), (31, 308), (47, 556),
    (73, 992), (103, 2_642), (139, 5_372), (173, 7_426), (211, 43_532),
    (233, 54_244), (293, 63_274), (313, 113_672), (331, 128_168),
    (359, 194_428), (383, 194_470), (389, 413_572), (523, 503_222),
    (601, 1_077_422), (727, 3_526_958), (751, 3_807_404),
)
RECORDS_UP_TO = 4_000_000


def test_prime_counts_at_powers_of_ten(table_1e7):
    assert [pi_upto(10**k, table_1e7) for k in range(1, 8)] == list(PI_POWERS_OF_TEN)


def _smallest_prime_record(lo, hi, table):
    (out,) = range_verify(lo, hi, claims=(ClaimId.GOLDBACH_WITNESS,), table=table)
    assert out.status == "pass", (lo, hi, out.payload)
    return out.payload["max_smallest_prime"]


def check_record_setters(table):
    """Each setter run alone gives its own (p, 2N) as the largest smallest
    prime, and every even between two setters, or past the last one up to
    4e6, stays at or below the record before it."""
    ends = [two_n for _, two_n in RECORD_SETTERS[1:]] + [RECORDS_UP_TO + 2]
    for (p, two_n), next_two_n in zip(RECORD_SETTERS, ends):
        assert _smallest_prime_record(two_n, two_n, table) == {"p": p, "two_n": two_n}
        if two_n + 2 <= next_two_n - 2:
            between = _smallest_prime_record(two_n + 2, next_two_n - 2, table)
            assert between["p"] <= p, (two_n, next_two_n, between)


def test_record_minimal_goldbach_primes(table_1e7):
    check_record_setters(table_1e7)
