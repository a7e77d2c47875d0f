#!/usr/bin/env python3
"""The arithmetic-CFT bridge at one level: quantum dimensions of SU(2)_k as
cyclotomic units of conductor k+2, the field where the Jacobi-sum reciprocal
roots of the degree-(k+2) Fermat variety live, plus the dilogarithm sum rules.

The default level 3 pairs the quintic threefold with SU(2)_3: both sides
generate Q(mu_5), and Q_1 = theta_2 is the golden ratio.
"""

import argparse

from cyarith import (check_kn_identity, check_kr_identity, cyclotomic_unit,
                     fusion_field_match, modular_data)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-k", "--level", type=int, default=3)
    args = ap.parse_args()
    k = args.level
    md = modular_data(k)
    print(f"SU(2)_{k}: central charge {md.c}, conductor {k + 2}")
    print(f"conformal weights: {', '.join(str(d) for d in md.deltas)}")
    print()

    rep = fusion_field_match(k)
    print(f"quantum dimensions vs cyclotomic units of Q(mu_{rep.conductor}), "
          f"exact in Z[mu_{2 * rep.conductor}] with xi = e^(i pi/{rep.conductor}):")
    for e in rep.entries:
        if e.unit_index is None:
            print(f"  l = {e.l}:  Q = {e.value:.15f}   "
                  f"(gcd(l+1, k+2) > 1, no unit label)")
            continue
        exact, _ = cyclotomic_unit(rep.conductor, e.unit_index)
        print(f"  l = {e.l}:  Q = {e.value:.15f} = xi^-{e.l} theta_{e.unit_index}, "
              f"theta_{e.unit_index} = {exact}")
    print()

    print(f"sum rules at level {k}:")
    print(f"  untwisted: residual {check_kr_identity(k):.3e}")
    for m in range(0, k + 1):
        res = check_kn_identity(k, m)
        if res.residual is None:
            print(f"  m = {m}: skipped, Q vanishes at l = {list(res.vanishing)}")
        else:
            print(f"  m = {m}: lhs {res.lhs:.12f}  rhs {res.rhs:.12f}  "
                  f"residual {res.residual:.3e}")


if __name__ == "__main__":
    main()
