"""cyarith count: rational point counts over F_q."""

from itertools import chain

from ..errors import ValidationError
from . import common


def add_arguments(parser) -> None:
    common.add_arguments(parser, variety=True, prime=True)
    parser.add_argument("-r", "--extension", type=int, default=1,
                        help="field extension degree (default 1)")


def main(args) -> None:
    from ..counting import count_projective
    fmt = common.output_format(args, "table", "json", "csv")
    v = common.variety(args)
    good, skipped = common.good_primes(v, args.prime)
    if not good:
        raise ValidationError("no good primes in the requested set")
    ext = args.extension
    rows = [{"p": p, "r": ext, "q": p**ext, "projective_points": str(n),
             "affine_points": str(1 + (p**ext - 1) * n)}
            for p in good for n in [count_projective(v, p, ext)]]
    payload = {"exponents": list(v.exponents),
               "dimension": v.complex_dim,
               "calabi_yau": v.is_calabi_yau,
               "skipped_bad_primes": skipped,
               "counts": rows}
    header = ["p", "r", "q", "projective_points", "affine_points"]
    table = chain([f"variety {v.exponents}  dim {v.complex_dim}  "
                   f"CY {'yes' if v.is_calabi_yau else 'no'}"],
                  (f"  q = {r['q']:<8d} projective {r['projective_points']:>16s}  "
                   f"affine {r['affine_points']}" for r in rows),
                  [f"  skipped bad primes: {skipped}"] if skipped else ())
    common.emit(args, fmt, payload, chain([header], ([r[k] for k in header] for r in rows)),
                table)
