"""Arithmetic of diagonal hypersurfaces over finite fields, their congruent
zeta functions and Hasse-Weil L-series, Jacobi-sum Hecke characters, and the
SU(2) WZW modular data whose quantum dimensions land in the same cyclotomic
fields."""

from .cft import (check_kn_identity, check_kr_identity, euler_Li2,
                  fusion_field_match, gepner_levels, modular_data, n2_spectrum,
                  quantum_dimension, rogers_L, verlinde_fusion)
from .charsum import AlphaTuple, build_alpha_set, full_alpha_set, jacobi_sum
from .counting import DiagonalVariety, count_affine, count_projective
from .cyclo import (CycInt, GroupRingElement, cyclotomic_polynomial,
                    cyclotomic_unit, delta_determinant, euler_phi,
                    hecke_weight, regulator_matrix, s_element)
from .errors import (BadReductionError, CapacityError, InvariantViolationError,
                     PrimalityError, ValidationError)
from .ffield import FieldTable, dlog, is_prime, make_field
from .hecke import (HeckeCharacter, LSeriesCoefficients, MatchReport,
                    SplitPrimeIdeal, dirichlet_coefficients, ideal_jacobi_sum,
                    match_hasse_weil, partial_sum_eval, power_residue_char,
                    split_prime_ideals, splitting_data)
from .zeta import (LocalFactor, expected_degrees, local_factor_middle,
                   predicted_count)

__version__ = "0.1.0"

__all__ = [
    "AlphaTuple", "BadReductionError", "CapacityError", "CycInt",
    "DiagonalVariety", "FieldTable", "GroupRingElement", "HeckeCharacter",
    "InvariantViolationError", "LSeriesCoefficients", "LocalFactor",
    "MatchReport", "PrimalityError", "SplitPrimeIdeal", "ValidationError",
    "build_alpha_set", "check_kn_identity", "check_kr_identity",
    "count_affine", "count_projective", "cyclotomic_polynomial",
    "cyclotomic_unit", "delta_determinant", "dirichlet_coefficients", "dlog",
    "euler_Li2", "euler_phi", "expected_degrees", "full_alpha_set",
    "fusion_field_match", "gepner_levels", "hecke_weight", "ideal_jacobi_sum",
    "is_prime", "jacobi_sum", "local_factor_middle", "make_field",
    "match_hasse_weil", "modular_data", "n2_spectrum", "partial_sum_eval",
    "power_residue_char", "predicted_count", "quantum_dimension",
    "regulator_matrix", "rogers_L", "s_element", "split_prime_ideals",
    "splitting_data", "verlinde_fusion",
]
