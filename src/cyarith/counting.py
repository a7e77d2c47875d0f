"""Point counts for diagonal projective hypersurfaces.

A diagonal hypersurface is the zero locus of sum_i x_i^{n_i} in projective
coordinates (x_0 : ... : x_s).  Projective counts divide out the scaling
torus: N = (N_affine - 1) / (q - 1), which is exact for every finite field
because the fibres of the quotient map are full G_m-torsors.

Affine counts come from Weil's formula: the hyperplane count q^s plus (q-1)
times the Jacobi sums j_q(alpha) of the admissible character tuples, all
from charsum.jacobi_sums over the field (p, r) (Weil 1949; Ireland-Rosen
ch. 8 section 7).  tests/oracles.py enumerates the affine grid as the
independent oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .charsum import build_alpha_set, jacobi_sums
from .cyclo import CycInt
from .errors import InvariantViolationError, ValidationError
from .ffield import is_prime


@dataclass(frozen=True)
class DiagonalVariety:
    """Exponent data of sum_i x_i^{n_i} = 0 in P_s."""

    exponents: tuple[int, ...]

    def __post_init__(self):
        exps = tuple(int(n) for n in self.exponents)
        object.__setattr__(self, "exponents", exps)
        if len(exps) < 3:
            raise ValidationError("need at least 3 coordinates")
        if any(n < 2 for n in exps):
            raise ValidationError("all exponents must be >= 2")

    @classmethod
    def fermat(cls, degree: int, dim: int) -> "DiagonalVariety":
        """Fermat hypersurface of degree d and complex dimension dim."""
        return cls((degree,) * (dim + 2))

    @property
    def ambient_dim(self) -> int:
        return len(self.exponents) - 1

    @property
    def complex_dim(self) -> int:
        return len(self.exponents) - 2

    @property
    def is_fermat(self) -> bool:
        return len(set(self.exponents)) == 1

    @property
    def degree(self) -> int:
        if not self.is_fermat:
            raise ValidationError("degree is defined for the Fermat case only")
        return self.exponents[0]

    @property
    def is_calabi_yau(self) -> bool:
        # vanishing first Chern class: sum of weights d/n_i equals the degree d
        d = math.lcm(*self.exponents)
        return sum(d // n for n in self.exponents) == d

    def is_good_prime(self, p: int) -> bool:
        return is_prime(p) and all(n % p for n in self.exponents)


# -- affine solution counting ----------------------------------------------------


def count_affine(v: DiagonalVariety, p: int, r: int = 1) -> int:
    """Number of affine F_q solutions, q = p^r, by Weil's formula

        N = q^s + (q-1) * sum over alpha in build_alpha_set(v, p, r) of j_q(alpha),

    which needs only gcd(n_i, q-1), so it also holds when p divides an n_i.
    The Jacobi-sum total must be a rational integer; rational_value() checks it.
    """
    tuples = build_alpha_set(v, p, r).tuples        # checks (p, r)
    sums = jacobi_sums((p, r), tuples)              # no tuple, no sum and no table
    q, s = p**r, v.ambient_dim
    big_m = math.lcm(*(j.m for j in sums))
    total = sum((j.lift(big_m) for j in sums), CycInt.zero(big_m))
    return q**s + (q - 1) * total.rational_value()


def count_projective(v: DiagonalVariety, p: int, r: int = 1) -> int:
    """Number of projective F_q points, q = p^r; exact-quotient check included."""
    na, q = count_affine(v, p, r), p**r
    if (na - 1) % (q - 1):
        raise InvariantViolationError(
            f"affine count {na} is not 1 mod q-1; scaling torsor broken")
    return (na - 1) // (q - 1)
