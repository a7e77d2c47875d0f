"""Power-residue characters, ideal Jacobi sums and L-series coefficients.

A prime p = 1 mod m splits completely in Q(mu_m); the phi(m) primes above
p are labelled concretely by the elements c of F_p of exact order m (the
possible residues of xi mod the ideal).  Rank-r Jacobi sums over such an
ideal reproduce, up to one global sign resolved empirically, the middle
local factor of the matching diagonal hypersurface, which is the whole
point of the exercise.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field as dc_field

import numpy as np

from .charsum import AlphaTuple, full_alpha_set, unit_sums
from .counting import DiagonalVariety
from .cyclo import CycInt, euler_phi, hecke_weight
from .errors import InvariantViolationError, ValidationError
from .ffield import FieldTable, is_prime, make_field
from .zeta import LocalFactor, local_factor_middle


def splitting_data(p: int, m: int) -> tuple[int, int]:
    """(f, g): residue degree and number of primes above p in Q(mu_m)."""
    if not is_prime(p):
        raise ValidationError(f"{p} is not prime")
    if m < 2:
        raise ValidationError("conductor must be at least 2")
    if math.gcd(p, m) != 1:
        raise ValidationError(f"p={p} ramifies in Q(mu_{m})")
    f, x = 1, p % m
    while x != 1:
        x = x * p % m
        f += 1
    phi = euler_phi(m)
    return f, phi // f


@dataclass(frozen=True, eq=False)
class SplitPrimeIdeal:
    """One of the phi(m) primes above a totally split p, labelled by the
    residue c of xi: an element of F_p of exact multiplicative order m."""

    p: int
    m: int
    c: int
    field: FieldTable = dc_field(repr=False, default=None)

    def __post_init__(self):
        f, _ = splitting_data(self.p, self.m)
        if f != 1:
            raise ValidationError(f"p={self.p} is not totally split mod {self.m}")
        if self.field is None:
            object.__setattr__(self, "field", make_field(self.p))
        t = int(self.field.dlog[self.c % self.p])
        if t < 0 or (self.p - 1) // math.gcd(t, self.p - 1) != self.m:
            raise ValidationError(f"c={self.c} does not have exact order {self.m}")

    @property
    def tau_inv(self) -> int:
        """chi_p(u) = xi^(tau_inv * dlog u), where c = g^(tau (p-1)/m)."""
        tau = int(self.field.dlog[self.c]) // ((self.p - 1) // self.m)
        return pow(tau, -1, self.m)

    def char_exponent_table(self) -> np.ndarray:
        """dc[u] with chi_p(u) = xi^dc[u]; dc[0] is a junk slot (masked off)."""
        dlog = np.maximum(self.field.dlog, 0)
        return (dlog * self.tau_inv) % self.m


def split_prime_ideals(p: int, m: int) -> tuple[SplitPrimeIdeal, ...]:
    """All primes above p, in increasing order of the label c."""
    f0 = make_field(p)
    step = (p - 1) // m
    cs = sorted(int(f0.exp[(step * t) % (p - 1)])
                for t in range(1, m) if math.gcd(t, m) == 1)
    return tuple(SplitPrimeIdeal(p, m, c, f0) for c in cs)


def power_residue_char(ideal: SplitPrimeIdeal, u: int) -> CycInt:
    """The m-th root of unity congruent to u^((p-1)/m) mod the ideal."""
    u %= ideal.p
    if u == 0:
        raise ValidationError("power residue symbol needs a unit argument")
    dc = ideal.char_exponent_table()
    j = int(dc[u])
    # sanity: c^j must reproduce u^((p-1)/m) in F_p
    if pow(ideal.c, j, ideal.p) != pow(u, (ideal.p - 1) // ideal.m, ideal.p):
        raise InvariantViolationError("power residue labelling broke")
    return CycInt.root(ideal.m, j)


def ideal_jacobi_sums(ideals, vectors) -> list[CycInt]:
    """J_a(p) = (-1)^(r+1) * sum over units u_1..u_r with sum(u) = -1 of
    prod chi(u_i)^(a_i), exact in Z[mu_m], for every ideal and every a.

    The ideals must lie over one prime; one pair table serves all sums.
    """
    ideals, vectors = tuple(ideals), list(vectors)
    if any(len(a) < 1 for a in vectors):
        raise ValidationError("rank must be at least 1")
    if not ideals:
        return []
    if len({(i.p, i.m) for i in ideals}) != 1:
        raise ValidationError("ideals must lie over one prime of one conductor")
    m = ideals[0].m
    rows = [(m, [x * ideal.tau_inv % m for x in a]) for ideal in ideals for a in vectors]
    sums = unit_sums(ideals[0].field, rows)
    return [(-1) ** (len(e) + 1) * j for (_, e), j in zip(rows, sums)]


def ideal_jacobi_sum(ideal: SplitPrimeIdeal, a: tuple[int, ...]) -> CycInt:
    """J_a(p) for one ideal; see ideal_jacobi_sums."""
    return ideal_jacobi_sums([ideal], [a])[0]


def ideal_product_jacobi_sum(ideals, a) -> CycInt:
    """Multiplicative extension to a product of split primes."""
    ideals = tuple(ideals)
    if not ideals:
        raise ValidationError("empty ideal product")
    out = ideal_jacobi_sum(ideals[0], a)
    for ideal in ideals[1:]:
        out = out * ideal_jacobi_sum(ideal, a).lift(out.m)
    return out


# -- Hasse-Weil vs Hecke local data -----------------------------------------------


def _galois_orbit_reps(tuples: tuple[AlphaTuple, ...], m: int) -> list[AlphaTuple]:
    seen: set[AlphaTuple] = set()
    reps = []
    for t in tuples:
        if t in seen:
            continue
        reps.append(t)
        for u in range(1, m):
            if math.gcd(u, m) == 1:
                seen.add(t.scale(u))
    return reps


@dataclass(frozen=True)
class MatchReport:
    p: int
    m: int
    ideals: int
    orbit_reps: int
    multiset_size: int
    matched: bool
    sign: int | None     # global sign making the multisets equal; None if neither


def match_hasse_weil(v: DiagonalVariety, p: int,
                     lf: LocalFactor | None = None) -> MatchReport:
    """Compare {ideal Jacobi sums over all primes above p and Galois orbit
    representatives} with the reciprocal-root multiset of the middle local
    factor, up to one global sign."""
    m = math.lcm(*v.exponents)
    f, g = splitting_data(p, m)
    if f != 1:
        raise ValidationError(f"p={p} is not split (f={f}); match needs p = 1 mod {m}")
    if lf is None:
        lf = local_factor_middle(v, p)
    zeta_side = Counter(j.lift(m) for j, _ in lf.orbits)

    aset = full_alpha_set(v, p)
    reps = _galois_orbit_reps(aset.tuples, m)
    ideals = split_prime_ideals(p, m)
    vectors = [tuple(n * (m // rep.den) % m for n in rep.nums[1:]) for rep in reps]
    hecke_side = Counter(ideal_jacobi_sums(ideals, vectors))

    sign = None
    for candidate in (1, -1):
        if Counter(candidate * j for j in hecke_side.elements()) == zeta_side:
            sign = candidate
            break
    return MatchReport(p=p, m=m, ideals=len(ideals), orbit_reps=len(reps),
                       multiset_size=sum(hecke_side.values()),
                       matched=sign is not None, sign=sign)


# -- Dirichlet coefficients --------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LocalFactorCollection:
    """Middle local factors of one variety at all good primes up to a cutoff."""

    variety: DiagonalVariety
    cutoff: int
    factors: dict[int, LocalFactor]
    bad_primes: tuple[int, ...]

    @property
    def weight(self) -> int:
        return self.variety.complex_dim


def hasse_weil_collection(v: DiagonalVariety, cutoff: int) -> LocalFactorCollection:
    """Local factors for every good prime up to cutoff, each carried to the
    t-adic precision needed for Dirichlet coefficients a_n, n <= cutoff."""
    factors: dict[int, LocalFactor] = {}
    bad: list[int] = []
    for p in range(2, cutoff + 1):
        if not is_prime(p):
            continue
        if not v.is_good_prime(p):
            bad.append(p)
            continue
        factors[p] = local_factor_middle(v, p, max_root_field=cutoff)
    return LocalFactorCollection(variety=v, cutoff=cutoff,
                                 factors=factors, bad_primes=tuple(bad))


@dataclass(frozen=True, eq=False)
class LSeriesCoefficients:
    """a_n for n = 1..cutoff; multiplicative by construction.

    Primes whose factors are deliberately absent (bad reduction, or
    non-split primes of a split-only Hecke character) contribute a_p = 0
    and are flagged rather than silently zeroed.
    """

    cutoff: int
    weight: int
    values: tuple          # ints (Hasse-Weil) or CycInt (Hecke), 1-based at index n-1
    included_primes: tuple[tuple[int, int], ...]   # (p, local degree or precision)
    bad_primes: tuple[int, ...]
    omitted_primes: tuple[int, ...]

    def a(self, n: int):
        if not 1 <= n <= self.cutoff:
            raise ValidationError(f"n={n} outside 1..{self.cutoff}")
        return self.values[n - 1]


def _invert_local(coeffs, K: int, one, zero) -> list:
    """First K+1 coefficients of 1/P(t) for P with P(0)=1."""
    b = [one] + [zero] * K
    for k in range(1, K + 1):
        acc = zero
        for j in range(1, min(k, len(coeffs) - 1) + 1):
            acc = acc - coeffs[j] * b[k - j]
        b[k] = acc
    return b


def _assemble(cutoff: int, prime_series: dict[int, list], one, zero,
              absent: set[int]) -> list:
    values = [zero] * (cutoff + 1)
    values[1] = one
    for n in range(2, cutoff + 1):
        q = n
        p = min(pf for pf in range(2, n + 1) if n % pf == 0)
        e = 0
        while q % p == 0:
            q //= p
            e += 1
        if p in absent:
            values[n] = zero
        else:
            values[n] = values[q] * prime_series[p][e] if q > 1 else prime_series[p][e]
    return values[1:]


def dirichlet_coefficients(source, cutoff: int) -> LSeriesCoefficients:
    """Expand an Euler product into a_1..a_cutoff.

    source is either a LocalFactorCollection (Hasse-Weil: integer a_n from
    L = prod 1/P(p^-s)) or a HeckeCharacter (CycInt a_n over split primes).
    """
    if cutoff < 1:
        raise ValidationError("cutoff must be positive")
    if isinstance(source, LocalFactorCollection):
        return _hasse_weil_coefficients(source, cutoff)
    if isinstance(source, HeckeCharacter):
        return _hecke_coefficients(source, cutoff)
    raise ValidationError(f"unsupported coefficient source {type(source).__name__}")


def _hasse_weil_coefficients(coll: LocalFactorCollection, cutoff: int) -> LSeriesCoefficients:
    good = [p for p in range(2, cutoff + 1)
            if is_prime(p) and p not in coll.bad_primes]
    missing = [p for p in good if p not in coll.factors]
    if missing:
        raise ValidationError(
            f"local factors missing at primes {missing}; extend the collection")
    prime_series: dict[int, list] = {}
    included = []
    for p in good:
        lf = coll.factors[p]
        k_max = 0
        while p ** (k_max + 1) <= cutoff:
            k_max += 1
        if lf.precision is not None and lf.precision < k_max:
            raise ValidationError(
                f"factor at p={p} truncated at t^{lf.precision}, need t^{k_max}")
        prime_series[p] = _invert_local(lf.coeffs, k_max, 1, 0)
        included.append((p, lf.full_degree))
    values = _assemble(cutoff, prime_series, 1, 0, set(coll.bad_primes))
    return LSeriesCoefficients(cutoff=cutoff, weight=coll.weight,
                               values=tuple(values),
                               included_primes=tuple(included),
                               bad_primes=tuple(p for p in coll.bad_primes if p <= cutoff),
                               omitted_primes=())


@dataclass(frozen=True, eq=False)
class HeckeCharacter:
    """Jacobi-sum Hecke character of Q(mu_m) with exponent vector a.

    The Euler product is restricted to totally split rational primes (each
    contributing its phi(m) ideals of norm p); other good primes are
    flagged as omitted, ramified ones as bad.
    """

    m: int
    a: tuple[int, ...]

    def __post_init__(self):
        if self.m < 2:
            raise ValidationError("conductor must be at least 2")
        if not self.a or any(x % self.m == 0 for x in self.a):
            raise ValidationError("exponent vector entries must be nonzero mod m")
        object.__setattr__(self, "a", tuple(x % self.m for x in self.a))

    @property
    def weight(self) -> int:
        w = hecke_weight(self.a, self.m)
        if w is None:
            raise ValidationError("S(a) is not of constant weight")
        return w

    def local_factor(self, p: int) -> list[CycInt]:
        """prod over ideals above p of (1 - J_a(ideal) t), coefficients in Z[mu_m]."""
        poly = [CycInt.one(self.m)]
        for j in ideal_jacobi_sums(split_prime_ideals(p, self.m), [self.a]):
            poly = [c for c in poly] + [CycInt.zero(self.m)]
            for i in range(len(poly) - 2, -1, -1):
                poly[i + 1] = poly[i + 1] - j * poly[i]
        return poly


def _hecke_coefficients(chi: HeckeCharacter, cutoff: int) -> LSeriesCoefficients:
    one, zero = CycInt.one(chi.m), CycInt.zero(chi.m)
    prime_series: dict[int, list] = {}
    included, bad, omitted = [], [], []
    for p in range(2, cutoff + 1):
        if not is_prime(p):
            continue
        if chi.m % p == 0:
            bad.append(p)
            continue
        f, g = splitting_data(p, chi.m)
        if f != 1:
            omitted.append(p)
            continue
        k_max = 0
        while p ** (k_max + 1) <= cutoff:
            k_max += 1
        prime_series[p] = _invert_local(chi.local_factor(p), k_max, one, zero)
        included.append((p, g))
    values = _assemble(cutoff, prime_series, one, zero, set(bad) | set(omitted))
    return LSeriesCoefficients(cutoff=cutoff, weight=chi.weight,
                               values=tuple(values),
                               included_primes=tuple(included),
                               bad_primes=tuple(bad),
                               omitted_primes=tuple(omitted))


# -- diagnostic partial sums -------------------------------------------------------

TAIL_THETA = 0.5   # divisor-growth allowance in |a_n| <= C n^(w/2 + theta)


@dataclass(frozen=True)
class PartialSumResult:
    s: float
    cutoff: int
    value: complex
    tail_bound: float


def partial_sum_eval(coeffs: LSeriesCoefficients, s: float) -> PartialSumResult:
    """sum_{n <= N} a_n n^-s with a crude integral tail bound.

    Convergence model: |a_n| <= C n^(w/2 + theta) with theta = 0.5 covering
    divisor growth, C estimated from the computed coefficients.  The bound
    is finite only for s > w/2 + theta + 1; s must at least exceed
    w/2 + 1 (edge of the absolute-convergence half-plane under RH).
    """
    w = coeffs.weight
    if s <= w / 2 + 1:
        raise ValidationError(f"s={s} outside the convergence range s > {w / 2 + 1}")
    total = 0j
    c_est = 1.0
    for n in range(1, coeffs.cutoff + 1):
        an = coeffs.a(n)
        z = complex(an.embed(1)) if isinstance(an, CycInt) else complex(an)
        total += z * n ** (-s)
        c_est = max(c_est, abs(z) / n ** (w / 2 + TAIL_THETA))
    edge = w / 2 + TAIL_THETA + 1
    if s > edge:
        tail = c_est * coeffs.cutoff ** (edge - s) / (s - edge)
    else:
        tail = math.inf
    value = total if total.imag != 0 else total.real
    return PartialSumResult(s=s, cutoff=coeffs.cutoff, value=value, tail_bound=tail)
