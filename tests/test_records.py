"""The records of the library: frozen __slots__ classes on cyarith.record.
Each refuses assignment and deletion, compares by value or by identity as
listed, prints Name(field=value, ...) over its fields, and survives pickle
and copy."""

import copy
import pickle
from fractions import Fraction

import pytest

from cyarith import DiagonalVariety, cft, dirichlet_coefficients, make_field
from cyarith.charsum import AlphaSet, AlphaTuple
from cyarith.cyclo import CycInt, GroupRingElement
from cyarith.hecke import HeckeCharacter, MatchReport, PartialSumResult
from cyarith.zeta import local_factor_middle
from oracles import SplitPrimeIdeal

CUBIC = (3, 3, 3)

# name: (build, a record of the same class that differs, or None where the
# class compares by identity, the fields its repr shows in order)
RECORDS = {
    "CycInt": (lambda: CycInt(5, (1, 2, 3, 4)), CycInt(5, (1, 2, 3, 5)), ("m", "coeffs")),
    "GroupRingElement": (lambda: GroupRingElement(5, ((1, 0), (2, 2))),
                         GroupRingElement(5, ((1, 0), (2, 1))), ("m", "terms")),
    "AlphaTuple": (lambda: AlphaTuple((1, 2), 3), AlphaTuple((2, 1), 3), ("nums", "den")),
    "DiagonalVariety": (lambda: DiagonalVariety(CUBIC), DiagonalVariety((3, 3, 3, 3)),
                        ("exponents",)),
    "MatchReport": (lambda: MatchReport(11, 5, 4, 51, 204), MatchReport(31, 5, 4, 51, 204),
                    ("p", "m", "ideals", "orbit_reps", "multiset_size")),
    "PartialSumResult": (lambda: PartialSumResult(3.0, 10, 0.5, 0.1),
                         PartialSumResult(3.0, 10, 0.5, 0.2),
                         ("s", "cutoff", "value", "tail_bound")),
    "ModularData": (lambda: cft.modular_data(2), cft.modular_data(3), ("k", "c", "deltas")),
    "N2Entry": (lambda: cft.N2Entry(0, -1, -1, Fraction(1, 24), Fraction(1, 6)),
                cft.N2Entry(0, 1, 1, Fraction(1, 24), Fraction(-1, 6)),
                ("l", "q", "s", "delta", "charge")),
    "KNResult": (lambda: cft.check_kn_identity(3, 1), cft.check_kn_identity(3, 0),
                 ("k", "m", "residual", "vanishing", "lhs", "rhs")),
    "FusionFieldEntry": (lambda: cft.FusionFieldEntry(1, 1.5, 2, 0.0),
                         cft.FusionFieldEntry(1, 1.5, None, None),
                         ("l", "value", "unit_index", "abs_err")),
    "FusionFieldReport": (lambda: cft.fusion_field_match(2), cft.fusion_field_match(3),
                          ("k", "conductor", "entries")),
    "AlphaSet": (lambda: AlphaSet((AlphaTuple((1, 2), 3),), ((AlphaTuple((1, 2), 3),),)),
                 None, ("tuples", "orbits")),
    "FieldTable": (lambda: make_field(5), None,
                   ("p", "r", "q", "modulus", "g", "dlog", "exp", "zech")),
    "LocalFactor": (lambda: local_factor_middle(DiagonalVariety(CUBIC), 7), None,
                    ("p", "cohomology_degree", "full_degree", "orbits", "precision",
                     "coeffs", "sign")),
    "SplitPrimeIdeal": (lambda: SplitPrimeIdeal(11, 5, 3), None, ("p", "m", "c")),
    "HeckeCharacter": (lambda: HeckeCharacter(5, (1, 1, 1, 1)), None, ("m", "a")),
    "LSeriesCoefficients": (lambda: dirichlet_coefficients(DiagonalVariety(CUBIC), 10), None,
                            ("cutoff", "weight", "values", "included_primes", "bad_primes",
                             "omitted_primes")),
    "N2Spectrum": (lambda: cft.n2_spectrum(1), None, ("k", "entries")),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_contract(name):
    build, other, fields = RECORDS[name]
    x, twin = build(), build()
    assert type(x).__name__ == name and not hasattr(x, "__dict__")
    assert repr(x) == f"{name}({', '.join(f'{f}={getattr(x, f)!r}' for f in fields)})"
    for field in (*fields, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(x, field, 0)
    with pytest.raises(AttributeError):
        delattr(x, fields[0])
    if other is None:                       # identity, as the dataclass had eq=False
        assert x == x and x != twin and hash(x) != hash(twin)
    else:
        assert x == twin and hash(x) == hash(twin) and x != other
    for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert type(y) is type(x) and repr(y) == repr(x)
        assert (y == x) == (other is not None)
        with pytest.raises(AttributeError):
            setattr(y, fields[0], 0)
