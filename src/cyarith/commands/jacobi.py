"""cyarith jacobi: the Jacobi sums of a degree set, checked against |J|^2 = q^(s-2)."""

from __future__ import annotations

import math
from itertools import chain

from ..errors import ValidationError
from . import common

TYPE_CHECKING = False    # true to type checkers; no run imports typing
if TYPE_CHECKING:
    from ..charsum import AlphaTuple


def _parse_alpha(args, exps: tuple[int, ...]) -> AlphaTuple | None:
    from ..charsum import AlphaTuple
    if not args.alpha:
        return None
    if args.orbits:             # one given tuple need not head its orbit
        raise ValidationError("--alpha and --orbits do not combine: --orbits lists "
                              "the orbit representatives of the whole degree set")
    nums = common.ints(args.alpha, "alpha")
    alpha = AlphaTuple(nums, math.lcm(*exps) if args.den is None else args.den)
    if len(nums) != len(exps) or any(n % d for d, n in zip(alpha.entry_denominators(), exps)):
        raise ValidationError(f"alpha {args.alpha!r} is not in the degree set of {exps}")
    return alpha


def main(args) -> None:
    from ..charsum import degree_set, frobenius_heads, jacobi_sums, ord_m
    fmt = common.output_format(args, "json", "csv", "table")
    v = common.variety(args)
    good, skipped = common.good_primes(v, args.prime)
    if len(good) != 1 or skipped:
        raise ValidationError("jacobi wants exactly one good prime")
    p = good[0]
    single = _parse_alpha(args, v.exponents)
    r = args.extension
    if r == 1:
        # characters of conductor m need m | q - 1; lift to the residue degree
        r = ord_m(p, single.conductor if single else math.lcm(*v.exponents))
    q = p**r
    if single is not None:
        alphas = [single]
    elif args.orbits:
        alphas = frobenius_heads(v.exponents, p)
    else:
        alphas = degree_set(v.exponents)
    entries = []
    for a, j in zip(alphas, jacobi_sums((p, r), alphas)):
        z = j.embed(1)
        entries.append({"alpha": list(a.nums), "den": a.den,
                        "conductor": a.conductor,
                        "coefficients": [str(c) for c in j.coeffs],
                        "embedding": {"re": z.real, "im": z.imag},
                        "norm_check": True})
    payload = {"exponents": list(v.exponents), "p": p, "q": q,
               "orbit_representatives_only": bool(args.orbits),
               "jacobi_sums": entries}
    csv_rows = chain([["alpha", "den", "re", "im", "norm_check"]],
                     ([";".join(str(n) for n in e["alpha"]), e["den"],
                       e["embedding"]["re"], e["embedding"]["im"], e["norm_check"]]
                      for e in entries))
    table = chain([f"p = {p}, q = {q}, {len(entries)} sums"],
                  (f"  {tuple(e['alpha'])}/{e['den']}  ~ "
                   f"{e['embedding']['re']:+.6f}{e['embedding']['im']:+.6f}i  norm ok"
                   for e in entries))
    common.emit(args, fmt, payload, csv_rows, table)
