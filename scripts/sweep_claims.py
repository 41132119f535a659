#!/usr/bin/env python3
"""Timed verification sweep: run each claim over an even range and report.

Builds one prime table for the whole run, then times every claim separately
so the cost profile of the different verifiers is visible.

Examples:
    python scripts/sweep_claims.py --hi 200000
    python scripts/sweep_claims.py --lo 6 --hi 10000000 --workers 4 \
        --claims sbound,witness
"""

import argparse
import sys
import time

from goldbach_ab import ClaimId, build_table, range_verify
from goldbach_ab.cli import parse_claims
from goldbach_ab.sieve import pi_upto


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--lo", type=int, default=6)
    ap.add_argument("--hi", type=int, default=10**6)
    ap.add_argument("--workers", type=int, default=4)
    ap.add_argument("--claims", default="all")
    args = ap.parse_args()

    claims = parse_claims(args.claims)
    t0 = time.perf_counter()
    table = build_table(args.hi + 1)
    print(f"prime table up to {table.limit}: {pi_upto(table.limit, table)} primes "
          f"in {time.perf_counter() - t0:.2f}s")

    worst = "pass"
    for cid in claims:
        t0 = time.perf_counter()
        (out,) = range_verify(
            args.lo, args.hi, claims=(cid,), workers=args.workers, table=table
        )
        dt = time.perf_counter() - t0
        extra = ""
        if cid is ClaimId.S_BOUND and "min_s" in out.payload:
            extra = (f"  min s={out.payload['min_s']['s']}@"
                     f"{out.payload['min_s']['two_n']}"
                     f" max s={out.payload['max_s']['s']}@"
                     f"{out.payload['max_s']['two_n']}")
        if cid is ClaimId.GOLDBACH_WITNESS and "max_smallest_prime" in out.payload:
            mp = out.payload["max_smallest_prime"]
            extra = f"  hardest smallest prime {mp['p']} at 2N={mp['two_n']}"
        print(f"{cid.value:<24} {out.status:<8} {dt:8.2f}s"
              f"  evens={out.payload.get('evens_checked', 0)}{extra}")
        if out.status == "fail":
            worst = "fail"
            print(f"  counterexample: {out.payload['counterexample']}")
    return 1 if worst == "fail" else 0


if __name__ == "__main__":
    sys.exit(main())
