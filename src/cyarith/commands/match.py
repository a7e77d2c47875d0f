"""cyarith match: zeta reciprocal roots against Hecke Jacobi-sum values."""

import math

from ..errors import ValidationError
from . import common


def add_arguments(parser) -> None:
    common.add_arguments(parser, variety=True, prime=True)


def main(args) -> None:
    from .. import cache
    from ..hecke import match_hasse_weil
    fmt = common.output_format(args, "table", "json")
    v = common.variety(args)
    primes, strict = common.parse_primes(args.prime)
    m = math.lcm(*v.exponents)
    # a range keeps the primes that split totally in Q(mu_m): p = 1 mod m
    skipped = [] if strict else [p for p in primes if p % m != 1]
    primes = [p for p in primes if p not in skipped]
    if not primes:
        raise ValidationError(
            f"no split primes in the requested set; match needs p = 1 mod {m}")
    cache_dir = common.cache_dir(args)
    reports = [match_hasse_weil(v, p, cache.local_factor(cache_dir, v, p)) for p in primes]
    results = [{"p": rep.p, "m": rep.m, "ideals": rep.ideals, "orbit_reps": rep.orbit_reps,
                "multiset_size": rep.multiset_size, "matched": True, "sign": 1}
               for rep in reports]

    def table():
        yield f"variety {v.exponents}: zeta reciprocal roots vs Hecke values"
        for r in results:
            # ideals x orbits = values fails where a class is smaller than phi(m)
            x, eq = ((" x ", " = ") if r["ideals"] * r["orbit_reps"] == r["multiset_size"]
                     else (", ", ", "))
            yield (f"  p = {r['p']:<6d} {r['ideals']} ideals{x}{r['orbit_reps']} orbits"
                   f"{eq}{r['multiset_size']} values  matched, sign +1")
        if skipped:
            yield f"  skipped bad or non-split primes: {skipped}"
    common.emit(args, fmt, {"exponents": list(v.exponents), "results": results},
                table=table())
