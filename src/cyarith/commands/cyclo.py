"""cyarith cyclo: cyclotomic units, unit determinants and S(a) tables."""

import math
from itertools import chain

from ..errors import ValidationError
from . import common


def add_arguments(parser) -> None:
    common.add_arguments(parser)
    parser.add_argument("-m", "--conductor", type=int)
    parser.add_argument("-p", "--prime", metavar="P[,P...]")
    parser.add_argument("--units", action="store_true",
                        help="table of theta_j with numeric moduli")
    parser.add_argument("--delta", action="store_true",
                        help="truncated unit determinant at p")
    parser.add_argument("--s-element", dest="s_element", action="store_true",
                        help="group-ring element S(a) and its weight n_sigma + "
                             "n_conj(sigma), 2 above hecke's when sum(a) = 0 mod m")
    parser.add_argument("--a", metavar="A1,A2,...", help="exponent vector for --s-element")


def main(args) -> None:
    from ..cyclo import cyclotomic_unit, delta_determinant, hecke_weight, s_element
    actions = [name for name in ("units", "delta", "s_element") if getattr(args, name)]
    if len(actions) != 1:
        raise ValidationError("pick exactly one of --units / --delta / --s-element")
    action = actions[0]
    fmt = common.output_format(args, "json", "table")
    m = args.conductor

    if action == "units":
        if m is None:
            raise ValidationError("--units needs -m/--conductor")
        if m < 2:
            raise ValidationError("conductor must be at least 2")
        units = [{"j": j, "coefficients": [str(c) for c in exact.coeffs], "modulus": numeric}
                 for j in range(2, m) if math.gcd(j, m) == 1
                 for exact, numeric in [cyclotomic_unit(m, j)]]
        payload = {"conductor": m, "units": units}
        table = chain([f"cyclotomic units theta_j of conductor {m}"],
                      (f"  j = {u['j']:<4d} |theta_j| = {u['modulus']:.12f}" for u in units))
    elif action == "delta":
        if args.prime is None:
            raise ValidationError("--delta needs -p")
        primes, strict = common.parse_primes(args.prime)
        # a range skips the primes delta_determinant cannot take
        skipped = [] if strict else [p for p in primes if p < 5]
        primes = [p for p in primes if p not in skipped]
        if not primes:
            raise ValidationError("no prime p >= 5 in the requested range")
        rows = [{"p": p, "determinant": delta_determinant(p)} for p in primes]
        payload = {"skipped_primes": skipped, "delta_determinants": rows}
        table = chain((f"  p = {r['p']:<6d} |Delta| = {r['determinant']:.12e}" for r in rows),
                      [f"  skipped primes below 5: {skipped}"] if skipped else ())
    else:
        if m is None or not args.a:
            raise ValidationError("--s-element needs -m/--conductor and --a")
        a = common.ints(args.a, "exponent vector")
        # n_sigma + n_conj(sigma) of S(a): hecke's weight, plus 2 when sum(a) = 0 mod m
        payload = {"conductor": m, "a": list(a),
                   "terms": [{"sigma": ell, "coefficient": c}
                             for ell, c in s_element(a, m).terms],
                   "weight": hecke_weight(a, m)}
        table = chain([f"S(a) for a = {a} mod {m}, S(a) weight {payload['weight']} "
                       f"(n_sigma + n_conj(sigma))"],
                      (f"  sigma_{t['sigma']}: {t['coefficient']}" for t in payload["terms"]))
    common.emit(args, fmt, payload, table=table)
