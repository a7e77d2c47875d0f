"""SU(2)_k modular data, fusion, dilogarithm sum rules, Gepner levels.

Rational data (central charge, anomalous dimensions, U(1) charges) is kept
in exact fractions, and fusion and the quantum dimensions as cyclotomic
units of conductor k+2 in integers; only quantum-dimension values and the
dilogarithms are floating point.  The dilogarithm identities recover c and
the anomalous dimensions from quantum dimensions alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .cyclo import CycInt, cyclotomic_unit
from .errors import InvariantViolationError, ValidationError

IDENTITY_TOL = 1e-9      # a KR / KN sum-rule residual must stay below this


@dataclass(frozen=True)
class ModularData:
    k: int
    c: Fraction                     # 3k/(k+2)
    deltas: tuple[Fraction, ...]    # l(l+2)/(4(k+2)) for l = 0..k


def modular_data(k: int) -> ModularData:
    if k < 1:
        raise ValidationError("level must be a positive integer")
    n = k + 2
    return ModularData(k=k, c=Fraction(3 * k, n),
                       deltas=tuple(Fraction(l * (l + 2), 4 * n) for l in range(k + 1)))


@dataclass(frozen=True)
class N2Entry:
    l: int
    q: int
    s: int
    delta: Fraction
    charge: Fraction


@dataclass(frozen=True, eq=False)
class N2Spectrum:
    k: int
    entries: tuple[N2Entry, ...]


def n2_spectrum(k: int) -> N2Spectrum:
    """Admissible (l, q, s) of the N=2 minimal model at level k: l = 0..k,
    q mod 2(k+2) balanced, s in {-1, 0, 1, 2}, l+q+s even, |q-s| <= l."""
    if k < 1:
        raise ValidationError("level must be a positive integer")
    n = k + 2
    entries = []
    for l in range(k + 1):
        for q in range(-n + 1, n + 1):
            for s in (-1, 0, 1, 2):
                if (l + q + s) % 2 or abs(q - s) > l:
                    continue
                delta = Fraction(l * (l + 2) - q * q, 4 * n) + Fraction(s * s, 8)
                charge = Fraction(q, n) - Fraction(s, 2)
                entries.append(N2Entry(l, q, s, delta, charge))
    return N2Spectrum(k=k, entries=tuple(entries))


def quantum_dimension(k: int, l: int, m: int = 0) -> float:
    """Generalized quantum dimension S_{lm}/S_{0m}; exact 0.0 when the
    numerator sine vanishes (needed to decide identity skips reliably)."""
    if not (0 <= l <= k and 0 <= m <= k):
        raise ValidationError(f"labels out of range for level {k}")
    n = k + 2
    if (l + 1) * (m + 1) % n == 0:
        return 0.0
    return math.sin((l + 1) * (m + 1) * math.pi / n) / math.sin((m + 1) * math.pi / n)


def _character(l: int, n2: int) -> list[int]:
    """Exponents mod n2 = 2n of Q_l(x) = x^l + x^(l-2) + ... + x^-l, whose
    value at x = e^(i pi r/n) is sin((l+1) r pi/n) / sin(r pi/n)."""
    return [(l - 2 * t) % n2 for t in range(l + 1)]


def verlinde_fusion(k: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Fusion tensor N[a][b][c] from the Verlinde sum, in integers.

    With n = k+2, S_br / S_0r = Q_b(e^(i pi r/n)), and the sines
    sin(pi C r/n), C = 1..n-1, are orthogonal over r = 1..n-1; so N_ab^c is
    the coefficient of x^(c+1) in (x^(a+1) - x^-(a+1)) Q_b(x) in
    Z[x]/(x^2n - 1).  That is not symmetric in a and b:
    InvariantViolationError unless every N_ab^c = N_ba^c >= 0.
    """
    if k < 1:
        raise ValidationError("level must be a positive integer")
    n2, labels = 2 * (k + 2), range(k + 1)
    chars = [set(_character(b, n2)) for b in labels]
    N = tuple(tuple(tuple(((c - a) % n2 in chars[b]) - ((c + a + 2) % n2 in chars[b])
                          for c in labels) for b in labels) for a in labels)
    for a, b in ((a, b) for a in labels for b in range(a + 1)):
        if min(N[a][b]) < 0 or N[a][b] != N[b][a]:
            raise InvariantViolationError(f"Verlinde N_{a},{b} = {N[a][b]} and N_{b},{a} = "
                                          f"{N[b][a]} are not equal and nonnegative")
    return N


# -- dilogarithms ------------------------------------------------------------------

_PI2_6 = math.pi ** 2 / 6


def euler_Li2(z: float) -> float:
    """Euler dilogarithm on [-1, 1]: power series for |z| <= 1/2, the
    reflection Li2(z) + Li2(1-z) = pi^2/6 - ln z ln(1-z) for z > 1/2, and
    the Landen map Li2(z) + Li2(z/(z-1)) = -ln^2(1-z)/2 for z < -1/2."""
    if math.isnan(z) or abs(z) > 1:
        raise ValidationError(f"dilogarithm argument {z} outside [-1, 1]")
    if z == 1.0:
        return _PI2_6
    if z == -1.0:
        return -_PI2_6 / 2
    if z > 0.5:
        return _PI2_6 - math.log(z) * math.log1p(-z) - euler_Li2(1.0 - z)
    if z < -0.5:
        return -0.5 * math.log1p(-z) ** 2 - euler_Li2(z / (z - 1.0))
    total, term, n = 0.0, z, 1
    while abs(term) > 1e-17 * max(1.0, abs(total)):
        total += term / (n * n)
        n += 1
        term *= z
        if n > 200:
            break
    return total


def rogers_L(x: float) -> float:
    """Rogers dilogarithm L(x) = Li2(x) + ln(x)ln(1-x)/2 on [0, 1], extended
    to x > 1 by L(x) = 2 L(1) - L(1/x) (real convention for sum rules)."""
    if math.isnan(x) or x < 0:
        raise ValidationError(f"Rogers dilogarithm needs x >= 0, got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return _PI2_6
    if x > 1.0:
        return 2 * _PI2_6 - rogers_L(1.0 / x)
    return euler_Li2(x) + 0.5 * math.log(x) * math.log1p(-x)


@dataclass(frozen=True)
class KNResult:
    k: int
    m: int
    residual: float | None          # None iff skipped
    vanishing: tuple[int, ...]      # labels l with Q_{lm} = 0
    lhs: float | None
    rhs: float


def check_kn_identity(k: int, m: int) -> KNResult:
    """(1/L(1)) sum_{l=1..k} L(1/Q_{lm}^2) = 3k/(k+2) - 24 Delta^m + 6m,
    skipped exactly when some Q_{lm} vanishes (1 <= l <= k); a residual of
    IDENTITY_TOL or more raises InvariantViolationError, naming the central
    charge sum rule at m = 0 and the dilogarithm sum rule otherwise."""
    if k < 1 or not 0 <= m <= k:
        raise ValidationError(f"bad (k, m) = ({k}, {m})")
    n = k + 2
    rhs = 3 * k / n - 24 * (m * (m + 2) / (4 * n)) + 6 * m
    vanishing = tuple(l for l in range(1, k + 1) if (l + 1) * (m + 1) % n == 0)
    if vanishing:
        return KNResult(k=k, m=m, residual=None, vanishing=vanishing,
                        lhs=None, rhs=rhs)
    lhs = sum(rogers_L(1.0 / quantum_dimension(k, l, m) ** 2)
              for l in range(1, k + 1)) / _PI2_6
    residual = abs(lhs - rhs)
    if not residual < IDENTITY_TOL:
        rule = "dilogarithm" if m else "central charge"
        raise InvariantViolationError(
            f"{rule} sum rule residual {residual:.3e} at k={k}, m={m}")
    return KNResult(k=k, m=m, residual=residual, vanishing=(),
                    lhs=lhs, rhs=rhs)


def check_kr_identity(k: int) -> float:
    """The residual | (1/L(1)) sum_{l=1..k} L(1/Q_l^2) - 3k/(k+2) |: the
    m = 0 row of check_kn_identity, where no Q_l vanishes, and raising as
    it does."""
    return check_kn_identity(k, 0).residual


# -- quantum dimensions as cyclotomic units ----------------------------------------


@dataclass(frozen=True)
class FusionFieldEntry:
    l: int
    value: float
    unit_index: int | None     # j with Q_l = theta_j, None when gcd(j, k+2) > 1
    abs_err: float | None      # 0.0 for a matched unit: the match is exact


@dataclass(frozen=True)
class FusionFieldReport:
    k: int
    conductor: int
    entries: tuple[FusionFieldEntry, ...]


def fusion_field_match(k: int) -> FusionFieldReport:
    """Identify Q_l(k) with the cyclotomic unit theta_{l+1} of conductor
    n = k+2 wherever gcd(l+1, n) = 1, exactly: Q_l = xi^-l theta_{l+1} in
    Z[mu_2n], xi = e^(i pi/n) (InvariantViolationError otherwise).  value
    is Q_l as a float; other labels carry only it."""
    if k < 1:
        raise ValidationError("level must be a positive integer")
    n, entries = k + 2, []
    for l in range(k + 1):
        j = l + 1
        unit = math.gcd(j, n) == 1
        if unit and (CycInt.root(2 * n, -l) * cyclotomic_unit(n, j)[0].lift(2 * n) !=
                     CycInt.from_exponent_counts(2 * n, dict.fromkeys(_character(l, 2 * n), 1))):
            raise InvariantViolationError(
                f"quantum dimension Q_{l}({k}) is not xi^-{l} theta_{j} in Z[mu_{2 * n}]")
        entries.append(FusionFieldEntry(l=l, value=quantum_dimension(k, l),
                                        unit_index=j if unit else None,
                                        abs_err=0.0 if unit else None))
    return FusionFieldReport(k=k, conductor=n, entries=tuple(entries))


# -- Gepner level enumeration ------------------------------------------------------


def _egyptian(rem: Fraction, slots: int, k_min: int):
    """Nondecreasing level tuples with sum 1/(k_i+2) = rem, exact."""
    if slots == 0:
        if rem == 0:
            yield ()
        return
    if rem <= 0:
        return
    k = k_min
    while True:
        term = Fraction(1, k + 2)
        if term * slots < rem:
            return                     # largest remaining term too small
        if term <= rem:
            for tail in _egyptian(rem - term, slots - 1, k):
                yield (k,) + tail
        k += 1


def gepner_levels(target_c: Fraction | int = 9, max_factors: int = 9) -> list[tuple[int, ...]]:
    """All level multisets {k_i} with sum 3k_i/(k_i+2) = target_c and at
    most max_factors factors, in exact rational arithmetic.

    With r factors the condition is sum 1/(k_i+2) = (r - target_c/3)/2.
    """
    target = Fraction(target_c)
    if max_factors < 1:
        raise ValidationError("max_factors must be positive")
    out = []
    for r in range(1, max_factors + 1):
        rem = Fraction(r - target / 3, 2)
        if rem <= 0:
            continue
        out.extend(_egyptian(rem, r, 1))
    return sorted(set(out), key=lambda t: (len(t), t))
