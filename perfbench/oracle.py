"""Independent numpy oracle for the outputs of goldbach-ab requests.

Shares no code with ``src/goldbach_ab``: primes come from its own numpy
sieve, Goldbach counts from direct index arithmetic (single targets) or an
FFT self-convolution of the odd-prime indicator (comet ranges), A/B counts
from ``numpy.gcd``, and ``s`` from a prime count minus the distinct odd
prime factors found by trial division.

``Oracle.check(argv, text)`` returns a list of problems; an empty list means
the output agrees with the oracle.
"""

import csv
import io
import json
import math
import random

import numpy as np

OK_STATUSES = ("pass", "boundary")
COMET_HEADER = ["two_n", "r", "s", "a_count", "b_count"]
CLAIMS = ("same_type_lemma", "s_bound", "prime_power_exclusion", "midpoint_coprime",
          "midpoint_decomposes", "pairing_non_empty", "goldbach_witness",
          "companion_decomposes")
# CLI spellings used by the workloads, mapped to the claim ids they print.
CLAIM_NAMES = {
    "sbound": "s_bound", "witness": "goldbach_witness", "pairing": "pairing_non_empty",
    "midpoint-coprime": "midpoint_coprime", "midpoint-decomposes": "midpoint_decomposes",
    "primepower": "prime_power_exclusion", "same-type": "same_type_lemma",
    "companions": "companion_decomposes",
}
# comet rows whose A/B counts are recomputed by gcd, per request
GCD_SAMPLE = 32


def _positional(argv):
    """Positional operands of a request's argv (after the command)."""
    out = []
    skip = False
    for tok in argv[1:]:
        if skip:
            skip = False
        elif tok.startswith("--"):
            skip = True
        else:
            out.append(int(tok))
    return out


def _option(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


class Oracle:
    """Reference answers for every even target up to ``limit``."""

    def __init__(self, limit, seed=0):
        self.seed = seed
        is_p = np.ones(limit + 1, dtype=bool)
        is_p[:2] = False
        is_p[4::2] = False
        for p in range(3, math.isqrt(limit) + 1, 2):
            if is_p[p]:
                is_p[p * p :: 2 * p] = False
        self.is_prime = is_p
        odd_prime = is_p.copy()
        odd_prime[2] = False
        self.odd_prime = odd_prime
        self.odd_pi = np.cumsum(odd_prime, dtype=np.int64)
        self.small_odd_primes = np.flatnonzero(odd_prime[: math.isqrt(limit) + 1])
        self._memo = {}

    # -- single-target reference values -------------------------------------

    def r(self, two_n):
        a = np.arange(3, two_n // 2 + 1, 2)
        return int(np.count_nonzero(self.is_prime[a] & self.is_prime[two_n - a]))

    def odd_prime_factors(self, two_n):
        m = two_n
        while m % 2 == 0:
            m //= 2
        out = []
        for p in self.small_odd_primes:
            p = int(p)
            if p * p > m:
                break
            if m % p == 0:
                out.append(p)
                while m % p == 0:
                    m //= p
        if m > 1:
            out.append(m)
        return out

    def s(self, two_n):
        return int(self.odd_pi[two_n - 3]) - len(self.odd_prime_factors(two_n))

    def ab_counts(self, two_n):
        a = np.arange(3, two_n // 2 + 1, 2, dtype=np.int64)
        left = np.gcd(a, two_n) == 1
        right = np.gcd(two_n - a, two_n) == 1
        return int(np.count_nonzero(left & right)), int(np.count_nonzero(~left & ~right))

    # -- range reference values ---------------------------------------------

    def r_range(self, lo, hi):
        """r(2N) for every even 2N in [lo, hi], by one FFT self-convolution."""
        ind = self.odd_prime[: hi + 1].astype(np.float64)
        size = 1 << (2 * hi + 1).bit_length()
        spec = np.fft.rfft(ind, size)
        conv = np.fft.irfft(spec * spec, size)[lo : hi + 1 : 2]
        ordered = np.rint(conv).astype(np.int64)
        if np.max(np.abs(conv - ordered)) > 0.25:
            raise ArithmeticError("FFT convolution lost integer precision")
        halves = np.arange(lo, hi + 1, 2) // 2
        return (ordered + self.odd_prime[halves]) // 2

    def s_range(self, lo, hi):
        """s(2N) for every even 2N in [lo, hi]: odd-prime count minus omega_odd(N)."""
        n = np.arange(lo // 2, hi // 2 + 1, dtype=np.int64)
        cof = n.copy()
        while True:
            even = cof % 2 == 0
            if not even.any():
                break
            cof[even] //= 2
        omega = np.zeros(len(n), dtype=np.int64)
        for p in self.small_odd_primes:
            p = int(p)
            if p * p > hi // 2:
                break
            first = (-int(n[0])) % p
            sub = cof[first::p]
            if not len(sub):
                continue
            omega[first::p] += 1
            while True:
                div = sub % p == 0
                if not div.any():
                    break
                sub[div] //= p
            cof[first::p] = sub
        omega += cof > 1
        return self.odd_pi[np.arange(lo, hi + 1, 2) - 3] - omega

    def _cached(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    # -- per-command checks ---------------------------------------------------

    def check(self, argv, text):
        """Problems found in the output ``text`` of request ``argv``."""
        try:
            return getattr(self, "_check_" + argv[0])(argv, text)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]

    def _check_census(self, argv, text):
        (two_n,) = _positional(argv)
        rows = list(csv.reader(io.StringIO(text)))
        if rows[0] != COMET_HEADER or len(rows) != 2:
            return [f"census csv shape {rows[:1]} with {len(rows)} lines"]
        got = [int(v) for v in rows[1]]
        want = self._cached(("census", two_n), lambda: [
            two_n, self.r(two_n), self.s(two_n), *self.ab_counts(two_n)])
        return [] if got == want else [f"census {two_n}: got {got}, want {want}"]

    def _check_analyze(self, argv, text):
        (two_n,) = _positional(argv)
        doc = json.loads(text)
        r, s, (a, b) = self._cached(("analyze", two_n), lambda: (
            self.r(two_n), self.s(two_n), self.ab_counts(two_n)))
        problems = []
        cen = doc["census"]
        if (doc["two_n"], cen["goldbach_count"], cen["a_count"], cen["b_count"]) != (two_n, r, a, b):
            problems.append(f"analyze {two_n}: census {cen['goldbach_count']},"
                            f"{cen['a_count']},{cen['b_count']} want {r},{a},{b}")
        if doc["prime_split"]["s"] != s or len(doc["prime_split"]["a_primes"]) != s:
            problems.append(f"analyze {two_n}: s {doc['prime_split']['s']} want {s}")
        if not isinstance(doc["companions"], list) or len(doc["companions"]) != s:
            problems.append(f"analyze {two_n}: companions do not number s={s}")
        statuses = {c["claim"]: c["status"] for c in doc["claims"]}
        if set(statuses) != set(CLAIMS):
            problems.append(f"analyze {two_n}: claims {sorted(statuses)}")
        problems += [f"analyze {two_n}: {k} is {v}" for k, v in statuses.items()
                     if v not in OK_STATUSES]
        return problems

    def _check_verify(self, argv, text):
        lo, hi = _positional(argv)
        doc = json.loads(text)
        evens = (hi - lo) // 2 + 1
        want_claims = {CLAIM_NAMES[c] for c in _option(argv, "--claims").split(",")}
        problems = []
        if (doc["lo"], doc["hi"], doc["exit_code"]) != (lo, hi, 0):
            problems.append(f"verify {lo}..{hi}: header {doc['lo']},{doc['hi']},"
                            f"exit {doc['exit_code']}")
        got_claims = {o["claim"] for o in doc["outcomes"]}
        if got_claims != want_claims:
            problems.append(f"verify {lo}..{hi}: claims {sorted(got_claims)}")
        for o in doc["outcomes"]:
            if o["status"] not in OK_STATUSES:
                problems.append(f"verify {lo}..{hi}: {o['claim']} is {o['status']}")
            if o["payload"].get("evens_checked") != evens:
                problems.append(f"verify {lo}..{hi}: {o['claim']} checked "
                                f"{o['payload'].get('evens_checked')} of {evens} evens")

        def extremes():
            s = self.s_range(lo, hi)
            lo_i, hi_i = int(np.argmin(s)), int(np.argmax(s))
            return ({"s": int(s[lo_i]), "two_n": lo + 2 * lo_i},
                    {"s": int(s[hi_i]), "two_n": lo + 2 * hi_i})

        min_s, max_s = self._cached(("s_range", lo, hi), extremes)
        stats = doc["s_stats"]
        if stats["min_s"] != min_s or stats["max_s"] != max_s:
            problems.append(f"verify {lo}..{hi}: s_stats {stats}, want {min_s}, {max_s}")
        return problems

    def _check_comet(self, argv, text):
        lo, hi = _positional(argv)
        rows = list(csv.reader(io.StringIO(text)))
        if rows[0] != COMET_HEADER:
            return [f"comet header {rows[0]}"]
        got = np.array([[int(v) for v in row] for row in rows[1:]], dtype=np.int64)
        two_n = np.arange(lo, hi + 1, 2)
        if got.shape != (len(two_n), 5) or not np.array_equal(got[:, 0], two_n):
            return [f"comet {lo}..{hi}: rows do not cover the range"]
        r, s = self._cached(("comet", lo, hi), lambda: (self.r_range(lo, hi),
                                                         self.s_range(lo, hi)))
        problems = []
        for col, name, want in ((1, "r", r), (2, "s", s),
                                (3, "a_count+b_count", (two_n - 6) // 4 + 1)):
            have = got[:, col] if col < 3 else got[:, 3] + got[:, 4]
            bad = np.flatnonzero(have != want)
            if len(bad):
                i = int(bad[0])
                problems.append(f"comet {lo}..{hi}: {name} at {int(two_n[i])} is "
                                f"{int(have[i])}, want {int(want[i])}")
        rng = random.Random(f"{self.seed}:{lo}:{hi}")
        for i in rng.sample(range(len(two_n)), min(GCD_SAMPLE, len(two_n))):
            t = int(two_n[i])
            a, _ = self._cached(("ab", t), lambda: self.ab_counts(t))
            if int(got[i, 3]) != a:
                problems.append(f"comet {lo}..{hi}: a_count at {t} is {int(got[i, 3])}, want {a}")
        return problems


def request_limit(argv):
    """Largest integer the oracle needs primality for to check ``argv``."""
    return max(_positional(argv))
