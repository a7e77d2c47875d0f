"""Arithmetic of diagonal hypersurfaces over finite fields, their congruent
zeta functions and Hasse-Weil L-series, Jacobi-sum Hecke characters, and the
SU(2) WZW modular data whose quantum dimensions land in the same cyclotomic
fields.

The names below, and the submodules, are imported on first access (PEP 562),
so ``import cyarith.cli`` or ``import cyarith.counting`` loads only what it
uses."""

import importlib

__version__ = "0.1.0"

# the module that defines each exported name
_EXPORTS = {
    "cft": ("check_kn_identity", "check_kr_identity", "euler_Li2",
            "fusion_field_match", "gepner_levels", "modular_data", "n2_spectrum",
            "quantum_dimension", "rogers_L", "verlinde_fusion"),
    "charsum": ("AlphaTuple", "jacobi_sum"),
    "counting": ("DiagonalVariety", "count_affine", "count_projective"),
    "cyclo": ("CycInt", "GroupRingElement", "cyclotomic_polynomial",
              "cyclotomic_unit", "delta_determinant", "euler_phi",
              "hecke_weight", "s_element"),
    "errors": ("BadReductionError", "CapacityError", "InvariantViolationError",
               "PrimalityError", "ValidationError"),
    "ffield": ("is_prime",),
    "hecke": ("HeckeCharacter", "LSeriesCoefficients", "MatchReport",
              "dirichlet_coefficients", "match_hasse_weil", "partial_sum_eval"),
    "tables": ("FieldTable", "dlog", "make_field"),
    "zeta": ("LocalFactor", "expected_degrees", "local_factor_middle",
             "predicted_count"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cache", "cli"}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
