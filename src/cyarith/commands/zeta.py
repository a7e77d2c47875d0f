"""cyarith zeta: middle local zeta factors, across primes in --jobs workers."""

from __future__ import annotations

import sys
from functools import partial
from itertools import chain

from ..errors import CapacityError, ValidationError
from . import common

TYPE_CHECKING = False    # true to type checkers; no run imports typing
if TYPE_CHECKING:
    from pathlib import Path


def add_arguments(parser) -> None:
    common.add_arguments(parser, variety=True, prime=True)
    parser.add_argument("--max-root-field", type=int, metavar="Q",
                        help="skip orbits needing fields beyond Q (truncates)")
    parser.add_argument("--predict", type=int, default=3, metavar="R",
                        help="predict point counts over F_{p^r}, r <= R (default 3)")


def _zeta_result(exps: tuple[int, ...], cap: int | None, predict: int,
                 cache_dir: Path | None, p: int) -> dict:
    """One prime's worth of zeta JSON; module-level so workers can pickle it."""
    from .. import cache
    from ..counting import DiagonalVariety
    from ..zeta import predicted_count
    v = DiagonalVariety(exps)
    lf = cache.local_factor(cache_dir, v, p, cap)   # RH and FE checked in building it
    out = {"p": p, "degree": lf.full_degree, "coefficients": common.Decimals(lf.coeffs),
           "rh_pass": True, "functional_sign": lf.sign, "predicted_counts": {}}
    if lf.is_exact:
        out["predicted_counts"] = {str(r): str(predicted_count(lf, r))
                                   for r in range(1, predict + 1)}
    else:
        out["precision"] = lf.precision
    return out


def main(args) -> None:
    fmt = common.output_format(args, "table", "json", "csv")
    v = common.variety(args)
    good, skipped = common.good_primes(v, args.prime)
    if not good:
        raise ValidationError("no good primes in the requested set")
    if args.predict < 0:
        raise ValidationError(f"--predict must be at least 0, got {args.predict}")
    job = partial(_zeta_result, v.exponents, args.max_root_field, args.predict,
                  common.cache_dir(args))
    width = min(args.jobs, len(good))
    try:
        if width > 1:
            # imported here: a serial run need not load multiprocessing (~20 ms)
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=width, initializer=sys.set_int_max_str_digits,
                                     initargs=(0,)) as pool:
                results = list(pool.map(job, good))
        else:
            results = [job(p) for p in good]
    except CapacityError as exc:
        if exc.degree == 1:         # truncation skips extension fields, never F_p
            raise
        raise ValidationError(
            f"{exc}; pass --max-root-field to truncate past large extension fields")
    payload = {"exponents": list(v.exponents),
               "dimension": v.complex_dim,
               "skipped_bad_primes": skipped,
               "results": results}
    csv_rows = chain([["p", "degree", "rh_pass", "functional_sign", "coefficients"]],
                     ([r["p"], r["degree"], r["rh_pass"], r["functional_sign"],
                       ";".join(r["coefficients"])] for r in results))

    def table():
        yield f"variety {v.exponents}  middle cohomology degree {results[0]['degree']}"
        for r in results:
            sign = r["functional_sign"]
            yield (f"  p = {r['p']:<6d} rh {'pass' if r['rh_pass'] else 'FAIL'}  "
                   f"sign {sign if sign is not None else '?'}  "
                   f"c1 = {r['coefficients'][1] if len(r['coefficients']) > 1 else '-'}")
            for rr, cnt in sorted(r["predicted_counts"].items(), key=lambda kv: int(kv[0])):
                yield f"      N_{rr} = {cnt}"
        if skipped:
            yield f"  skipped bad primes: {skipped}"
    common.emit(args, fmt, payload, csv_rows, table())
