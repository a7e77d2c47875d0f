"""cyarith hecke: the Dirichlet coefficients of a Jacobi-sum Hecke character."""

from ..errors import ValidationError
from . import common


def add_arguments(parser) -> None:
    common.add_arguments(parser)
    parser.add_argument("-m", "--conductor", type=int, required=True)
    parser.add_argument("--a", required=True, metavar="A1,A2,...",
                        help="character exponent vector mod m")
    parser.add_argument("--cutoff", type=int, metavar="N")
    parser.add_argument("--eval-at", type=float, metavar="S")


def main(args) -> None:
    from ..hecke import HeckeCharacter, dirichlet_coefficients
    fmt = common.dirichlet_format(args)
    if args.cutoff is None:
        raise ValidationError("hecke needs --cutoff")
    chi = HeckeCharacter(args.conductor, common.ints(args.a, "exponent vector"))
    coeffs = dirichlet_coefficients(chi, args.cutoff)
    head = {"conductor": chi.m,
            "a": list(chi.a),
            "weight": chi.weight,
            "cutoff": args.cutoff,
            "bad_primes": list(coeffs.bad_primes),
            "omitted_primes": list(coeffs.omitted_primes),
            "split_primes": list(coeffs.included_primes)}
    common.emit_dirichlet(args, fmt, coeffs, head,
                          f"Hecke character m = {chi.m}, a = {chi.a}, weight {chi.weight}")
