"""cyarith hecke: the Dirichlet coefficients of a Jacobi-sum Hecke character."""

from ..errors import ValidationError
from . import common


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
