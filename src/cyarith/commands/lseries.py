"""cyarith lseries: the Hasse-Weil Dirichlet coefficients a_n of a variety."""

from ..errors import ValidationError
from . import common


def add_arguments(parser) -> None:
    common.add_arguments(parser, variety=True)
    parser.add_argument("--cutoff", type=int, metavar="N", help="largest index n")
    parser.add_argument("--eval-at", type=float, metavar="S",
                        help="partial sum of a_n n^-s and a tail bound (--json, --table)")


def main(args) -> None:
    from ..hecke import dirichlet_coefficients
    fmt = common.dirichlet_format(args)
    v = common.variety(args)
    if args.cutoff is None:
        raise ValidationError("lseries needs --cutoff")
    coeffs = dirichlet_coefficients(v, args.cutoff)
    head = {"exponents": list(v.exponents),
            "cutoff": args.cutoff,
            "weight": coeffs.weight,
            "bad_primes": list(coeffs.bad_primes),
            "omitted_primes": list(coeffs.omitted_primes)}
    common.emit_dirichlet(args, fmt, coeffs, head,
                          f"L-series of {v.exponents}, weight {coeffs.weight}, "
                          f"n <= {args.cutoff}, bad primes {list(coeffs.bad_primes)}")
