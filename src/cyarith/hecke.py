"""Power-residue characters, ideal Jacobi sums and L-series coefficients.

A prime p = 1 mod m splits completely in Q(mu_m); the phi(m) primes above
p are labelled concretely by the elements c of F_p of exact order m (the
possible residues of xi mod the ideal), found with pow from the smallest
primitive root g, as are the power-residue symbols: no field table is
needed to name an ideal or read its character.  Rank-r Jacobi sums over
such an ideal reproduce the middle local factor of the matching diagonal
hypersurface, which is the whole point of the exercise.  The ideal
labelled c = g^(tau (p-1)/m) reads its characters through
xi^(tau_inv * dlog), so its sums are sigma_{tau_inv} of one base sum: the
phi(m) ideals above p are one Galois class, and charsum.unit_sums
evaluates one sum for all of them.  Where charsum.in_closed_form holds,
that sum is Stickelberger's closed form and needs no table either, so such
a character has no prime bound; other characters read F_p's table, up to
ffield.TABLE_BOUND.

Both Euler products here, the Hasse-Weil one of a variety and the Hecke one
of a Jacobi-sum character, are built from zeta.LocalFactor: each local
factor is expanded in Z[t] and checked (Galois closure, |J|^2 = p^weight,
integrality, the functional equation) by its constructor, so every a_n is a
plain int.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field as dc_field
from functools import lru_cache, partial

from .charsum import (degree_conductors, full_alpha_set, galois_class_head,
                      in_closed_form, ord_m, unit_sums)
from .counting import DiagonalVariety
from .cyclo import CycInt, euler_phi, hecke_weight
from .errors import InvariantViolationError, ValidationError
from .ffield import check_table, is_prime, primitive_root
from .zeta import LocalFactor, local_factor_middle


@lru_cache(maxsize=1 << 12)
def splitting_data(p: int, m: int) -> tuple[int, int]:
    """(f, g): residue degree and number of primes above p in Q(mu_m).
    Cached: each ideal above p asks again."""
    if not is_prime(p):
        raise ValidationError(f"{p} is not prime")
    if m < 2:
        raise ValidationError("conductor must be at least 2")
    if math.gcd(p, m) != 1:
        raise ValidationError(f"p={p} ramifies in Q(mu_{m})")
    f = ord_m(p, m)
    return f, euler_phi(m) // f


@dataclass(frozen=True, eq=False)
class SplitPrimeIdeal:
    """One of the phi(m) primes above a totally split p, labelled by the
    residue c of xi: an element of F_p of exact multiplicative order m.

    With g = primitive_root(p), c = g^(tau (p-1)/m) for one tau prime to m,
    and chi_p(u) = xi^(tau_inv * dlog_g u).
    """

    p: int
    m: int
    c: int
    tau_inv: int = dc_field(init=False, repr=False)

    def __post_init__(self):
        f, _ = splitting_data(self.p, self.m)
        if f != 1:
            raise ValidationError(f"p={self.p} is not totally split mod {self.m}")
        w = pow(primitive_root(self.p), (self.p - 1) // self.m, self.p)
        tau = _power_index(w, self.c, self.p, self.m)
        if tau is None or math.gcd(tau, self.m) != 1:
            raise ValidationError(f"c={self.c} does not have exact order {self.m}")
        object.__setattr__(self, "tau_inv", pow(tau, -1, self.m))


def _power_index(base: int, x: int, p: int, n: int) -> int | None:
    """The t in 0..n-1 with base^t = x mod p, or None."""
    y = 1
    for t in range(n):
        if y == x % p:
            return t
        y = y * base % p
    return None


def split_prime_ideals(p: int, m: int) -> tuple[SplitPrimeIdeal, ...]:
    """All primes above p, in increasing order of the label c."""
    if splitting_data(p, m)[0] != 1:
        raise ValidationError(f"p={p} is not totally split mod {m}")
    w = pow(primitive_root(p), (p - 1) // m, p)
    cs = sorted(pow(w, t, p) for t in range(1, m) if math.gcd(t, m) == 1)
    return tuple(SplitPrimeIdeal(p, m, c) for c in cs)


def power_residue_char(ideal: SplitPrimeIdeal, u: int) -> CycInt:
    """The m-th root of unity congruent to u^((p-1)/m) mod the ideal: xi^j
    with c^j = u^((p-1)/m) in F_p."""
    p, m = ideal.p, ideal.m
    u %= p
    if u == 0:
        raise ValidationError("power residue symbol needs a unit argument")
    j = _power_index(ideal.c, pow(u, (p - 1) // m, p), p, m)
    if j is None:
        raise InvariantViolationError("power residue labelling broke")
    return CycInt.root(m, j)


def ideal_jacobi_sums(ideals, vectors) -> list[CycInt]:
    """J_a(p) = (-1)^(r+1) * sum over units u_1..u_r with sum(u) = -1 of
    prod chi(u_i)^(a_i), exact in Z[mu_m], for every ideal and every a.

    The ideals must lie over one prime; charsum.unit_sums evaluates one sum
    per Galois class, and builds F_p's table only if some class needs the
    kernel (see charsum.in_closed_form).
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
    sums = unit_sums((ideals[0].p, 1), rows)
    return [(-1) ** (len(e) + 1) * j for (_, e), j in zip(rows, sums)]


def ideal_jacobi_sum(ideal: SplitPrimeIdeal, a: tuple[int, ...]) -> CycInt:
    """J_a(p) for one ideal; see ideal_jacobi_sums."""
    return ideal_jacobi_sums([ideal], [a])[0]


# -- Hasse-Weil vs Hecke local data -----------------------------------------------


@dataclass(frozen=True)
class MatchReport:
    p: int
    m: int
    ideals: int
    orbit_reps: int      # Galois-class heads
    multiset_size: int


def match_hasse_weil(v: DiagonalVariety, p: int,
                     lf: LocalFactor | None = None) -> MatchReport:
    """Compare the ideal Jacobi sums of the Galois-class heads over the
    phi(m) primes above p with the reciprocal roots of the middle local
    factor, as multisets (InvariantViolationError if they differ).  The
    ideals give each sum of a head's class phi(m) / |class| times, so each
    ideal value counts |class| times against phi(m) copies of the roots."""
    m = math.lcm(*v.exponents)
    f, g = splitting_data(p, m)
    if f != 1:
        raise ValidationError(f"p={p} is not split (f={f}); match needs p = 1 mod {m}")
    if lf is None:
        lf = local_factor_middle(v, p)
    zeta_side = Counter(j.lift(m) for j, _ in lf.orbits)

    rows = [(m, tuple(n * (m // t.den) % m for n in t.nums[1:]))
            for t in full_alpha_set(v, p).tuples]
    sizes = Counter(galois_class_head(row)[0][1] for row in rows)
    sums = ideal_jacobi_sums(split_prime_ideals(p, m), list(sizes))    # ideal by ideal
    hecke_side: Counter[CycInt] = Counter()
    for j, n in zip(sums, list(sizes.values()) * g):
        hecke_side[j] += n
    if hecke_side != Counter({j: g * n for j, n in zeta_side.items()}):
        raise InvariantViolationError(
            f"zeta roots and Hecke Jacobi sums disagree as multisets at p={p}")
    return MatchReport(p=p, m=m, ideals=g, orbit_reps=len(sizes),
                       multiset_size=sum(zeta_side.values()))


# -- Dirichlet coefficients --------------------------------------------------------

BAD, OMITTED = "bad", "omitted"


def _hasse_weil_factor(v: DiagonalVariety, p: int, k_max: int):
    """BAD, or v's middle factor at p through the orbits with f <= k_max,
    which keeps it exact through t^k_max."""
    if not v.is_good_prime(p):
        return BAD
    return local_factor_middle(v, p, max_root_field=p ** k_max)


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
        """w with |J_a(P)|^2 = p^w at every prime P above a split p."""
        w = hecke_weight(self.a, self.m)
        if w is None:
            raise ValidationError("S(a) is not of constant weight")
        # hecke_weight is r - 1 for rank r, or r when sum(a) = 0 mod m.  Then
        # the product of the characters is trivial, J drops a variable and
        # |J|^2 = p^(r-2) (Ireland-Rosen ch. 8 section 5): two less.
        return w - 2 if sum(self.a) % self.m == 0 else w

    def local_factor(self, p: int) -> LocalFactor:
        """prod over the ideals above a split p of (1 - J_a(ideal) t), as a
        LocalFactor of degree phi(m) with the weight in cohomology_degree.

        The ideals are Galois conjugates, so the product is a norm and lies
        in Z[t]; building the LocalFactor checks that exactly, with
        |J|^2 = p^weight and the functional equation.
        """
        sums = ideal_jacobi_sums(split_prime_ideals(p, self.m), [self.a])
        return LocalFactor(p=p, cohomology_degree=self.weight,
                           full_degree=euler_phi(self.m), orbits=tuple((j, 1) for j in sums))

    def euler_factor(self, p: int, k_max: int):
        """BAD if p ramifies, OMITTED unless it splits totally, else
        local_factor(p)."""
        if self.m % p == 0:
            return BAD
        if splitting_data(p, self.m)[0] != 1:
            return OMITTED
        return self.local_factor(p)


@dataclass(frozen=True, eq=False)
class LSeriesCoefficients:
    """Integer a_n for n = 1..cutoff; multiplicative by construction.

    Primes whose factors are deliberately absent (bad reduction, or
    non-split primes of a split-only Hecke character) contribute a_p = 0
    and are flagged rather than silently zeroed.
    """

    cutoff: int
    weight: int
    values: tuple[int, ...]                        # a_n at index n-1
    included_primes: tuple[tuple[int, int], ...]   # (p, local degree)
    bad_primes: tuple[int, ...]
    omitted_primes: tuple[int, ...]

    def a(self, n: int) -> int:
        if not 1 <= n <= self.cutoff:
            raise ValidationError(f"n={n} outside 1..{self.cutoff}")
        return self.values[n - 1]


def _invert_local(coeffs: tuple[int, ...], k_max: int) -> list[int]:
    """First k_max+1 coefficients of 1/P(t) for P with P(0)=1."""
    b = [1] + [0] * k_max
    for k in range(1, k_max + 1):
        b[k] = -sum(coeffs[j] * b[k - j] for j in range(1, min(k, len(coeffs) - 1) + 1))
    return b


def _smallest_prime_factors(cutoff: int) -> list[int]:
    """spf[n] for n = 0..cutoff, by sieve; n >= 2 is prime iff spf[n] == n."""
    spf = list(range(cutoff + 1))
    for p in range(2, math.isqrt(cutoff) + 1):
        if spf[p] == p:
            for k in range(p * p, cutoff + 1, p):
                if spf[k] == k:
                    spf[k] = p
    return spf


def _assemble(spf: list[int], prime_series: dict[int, list[int]]) -> list[int]:
    """a_1..a_cutoff, spf the sieve to cutoff, from the series of 1/P(t) at
    each prime; a prime with no series makes a_n vanish for every n it
    divides."""
    cutoff = len(spf) - 1
    values = [0, 1] + [0] * (cutoff - 1)
    for n in range(2, cutoff + 1):
        p = spf[n]
        q, e = n, 0
        while q % p == 0:
            q //= p
            e += 1
        if p in prime_series:
            values[n] = values[q] * prime_series[p][e]
    return values[1:]


def dirichlet_coefficients(source: DiagonalVariety | HeckeCharacter,
                           cutoff: int) -> LSeriesCoefficients:
    """Expand L = prod 1/P_p(p^-s) into integer a_1..a_cutoff.

    source is a DiagonalVariety (the Hasse-Weil L-series of its middle
    cohomology) or a HeckeCharacter.  Prime by prime, with k_max the largest
    k such that p^k <= cutoff, its Euler factor is BAD, OMITTED, or a checked
    LocalFactor exact through t^k_max; bad and omitted primes give a_n = 0.
    A variety's factor at p is built when it is needed, from the Frobenius
    orbits of length f <= k_max (p^f <= cutoff).  If some factor would need
    a field table F_{p^f} beyond ffield.TABLE_BOUND, check_table's
    CapacityError names the first such p before any factor is built; the
    sums in closed form (charsum.in_closed_form) need no table and are not
    counted.
    """
    if cutoff < 1:
        raise ValidationError("cutoff must be positive")
    if isinstance(source, DiagonalVariety):
        euler_factor, weight = partial(_hasse_weil_factor, source), source.complex_dim
        rows = degree_conductors(source)

        def degrees(p):
            """Degrees f of the tables F_{p^f} the factor at p builds: an
            orbit of tuples of conductor d has f = ord_d(p), and needs no
            table when its sums are in closed form over F_{p^f}."""
            if any(n % p == 0 for n in source.exponents):
                return set()                    # bad reduction: no factor
            orders = {d: ord_m(p, d) for d in rows}
            return {orders[d] for d, row in rows.items()
                    if not in_closed_form(p, orders[d], *row)}
    elif isinstance(source, HeckeCharacter):
        euler_factor, weight = source.euler_factor, source.weight

        def degrees(p):
            split = p % source.m == 1
            return {1} if split and not in_closed_form(p, 1, source.m, source.a) else set()
    else:
        raise ValidationError(f"unsupported coefficient source {type(source).__name__}")
    spf = _smallest_prime_factors(cutoff)
    primes = []
    for p in (n for n in range(2, cutoff + 1) if spf[n] == n):
        k_max = 0
        while p ** (k_max + 1) <= cutoff:
            k_max += 1
        primes.append((p, k_max))
        for f in sorted(f for f in degrees(p) if f <= k_max):
            check_table(p, f)
    prime_series: dict[int, list[int]] = {}
    included, bad, omitted = [], [], []
    for p, k_max in primes:
        factor = euler_factor(p, k_max)
        if factor == BAD:
            bad.append(p)
        elif factor == OMITTED:
            omitted.append(p)
        else:
            prime_series[p] = _invert_local(factor.coeffs, k_max)
            included.append((p, factor.full_degree))
    return LSeriesCoefficients(cutoff=cutoff, weight=weight,
                               values=tuple(_assemble(spf, prime_series)),
                               included_primes=tuple(included),
                               bad_primes=tuple(bad),
                               omitted_primes=tuple(omitted))


# -- diagnostic partial sums -------------------------------------------------------

TAIL_THETA = 0.5   # divisor-growth allowance in |a_n| <= C n^(w/2 + theta)


@dataclass(frozen=True)
class PartialSumResult:
    s: float
    cutoff: int
    value: float
    tail_bound: float


def partial_sum_eval(coeffs: LSeriesCoefficients, s: float) -> PartialSumResult:
    """sum_{n <= N} a_n n^-s with a crude integral tail bound.

    Convergence model: |a_n| <= C n^(w/2 + theta) with theta = 0.5 covering
    divisor growth, C estimated from the computed coefficients.  The bound
    is finite only for s > w/2 + theta + 1; s must at least exceed
    w/2 + 1 (edge of the absolute-convergence half-plane under RH).
    """
    w = coeffs.weight
    if not math.isfinite(s):
        raise ValidationError(f"s={s} is not a finite number")
    if s <= w / 2 + 1:
        raise ValidationError(f"s={s} outside the convergence range s > {w / 2 + 1}")
    total = 0.0
    c_est = 1.0
    for n, an in enumerate(coeffs.values, 1):
        total += an * n ** (-s)
        c_est = max(c_est, abs(an) / n ** (w / 2 + TAIL_THETA))
    edge = w / 2 + TAIL_THETA + 1
    tail = c_est * coeffs.cutoff ** (edge - s) / (s - edge) if s > edge else math.inf
    return PartialSumResult(s=s, cutoff=coeffs.cutoff, value=total, tail_bound=tail)
