#!/usr/bin/env python3
"""Survey the middle local factors of a diagonal hypersurface over a prime
range: functional-equation sign, truncation precision, timing.  Building
each factor checks RH and the functional equation exactly; a failure raises.

Example:
    python scripts/zeta_survey.py --exponents 5,5,5,5,5 --max-prime 100 \
        --max-root-field 3000 --csv survey.csv
"""

import argparse
import csv
import sys
import time

from cyarith import DiagonalVariety, is_prime, local_factor_middle, predicted_count
from cyarith.errors import CapacityError


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--exponents", default="5,5,5,5,5",
                    help="comma-separated exponents (default: quintic threefold)")
    ap.add_argument("--max-prime", type=int, default=100)
    ap.add_argument("--max-root-field", type=int, default=None,
                    help="skip orbits needing |F| beyond this bound")
    ap.add_argument("--csv", metavar="PATH", help="also write rows to a CSV file")
    return ap.parse_args()


def main():
    args = parse_args()
    v = DiagonalVariety(tuple(int(x) for x in args.exponents.split(",")))
    rows = []
    print(f"variety {v.exponents}, complex dimension {v.complex_dim}, "
          f"CY: {v.is_calabi_yau}")
    for p in range(2, args.max_prime + 1):
        if not is_prime(p):
            continue
        if any(n % p == 0 for n in v.exponents):     # p is prime: the exponents decide
            print(f"p = {p:<6d} bad reduction, skipped")
            continue
        t0 = time.monotonic()
        try:
            lf = local_factor_middle(v, p, max_root_field=args.max_root_field)
        except CapacityError as exc:
            print(f"p = {p:<6d} capacity: {exc}")
            continue
        dt = time.monotonic() - t0
        sign = lf.sign     # the functional-equation sign, checked in building lf
        if lf.is_exact:
            n1 = predicted_count(lf, 1)
            status = f"exact  sign {sign:+d}  N1 {n1}"
        else:
            n1 = None
            status = f"truncated at t^{lf.precision}"
        orbits = sum(n for *_, n in lf.classes)
        print(f"p = {p:<6d} deg {lf.full_degree:<6d} orbits {orbits:<5d} "
              f"{status}  [{dt:.2f}s]")
        rows.append([p, lf.full_degree, orbits, sign,
                     lf.precision if not lf.is_exact else "", n1, f"{dt:.3f}"])
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["p", "degree", "orbits", "sign", "precision",
                        "n1", "seconds"])
            w.writerows(rows)
        print(f"wrote {len(rows)} rows to {args.csv}", file=sys.stderr)


if __name__ == "__main__":
    main()
