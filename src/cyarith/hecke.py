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
plain int.  dirichlet_coefficients decides each prime once, by one plan per
source: bad, omitted, or the table degrees charsum.table_degrees names.
"""
from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache

from .charsum import (degree_conductors, full_alpha_set, galois_class_head, ord_m,
                      table_degrees, unit_sums)
from .counting import DiagonalVariety
from .cyclo import CycInt, euler_phi, hecke_weight
from .errors import InvariantViolationError, ValidationError
from .ffield import check_table, is_prime, primitive_root
from .record import Record, Value
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


class SplitPrimeIdeal(Record):
    """One of the phi(m) primes above a totally split p, labelled by the
    residue c of xi: an element of F_p of exact multiplicative order m.

    With g = primitive_root(p), c = g^(tau (p-1)/m) for one tau prime to m,
    and chi_p(u) = xi^(tau_inv * dlog_g u).
    """

    __slots__ = ("p", "m", "c", "tau_inv")

    def __init__(self, p: int, m: int, c: int):
        f, _ = splitting_data(p, m)
        if f != 1:
            raise ValidationError(f"p={p} is not totally split mod {m}")
        w = pow(primitive_root(p), (p - 1) // m, p)
        tau = _power_index(w, c, p, m)
        if tau is None or math.gcd(tau, m) != 1:
            raise ValidationError(f"c={c} does not have exact order {m}")
        self._fill(p, m, c, pow(tau, -1, m))

    def __repr__(self):             # tau_inv is derived from the label
        return f"SplitPrimeIdeal(p={self.p!r}, m={self.m!r}, c={self.c!r})"


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


class MatchReport(Value):
    """What match_hasse_weil compared at p; orbit_reps counts the
    Galois-class heads."""

    __slots__ = ("p", "m", "ideals", "orbit_reps", "multiset_size")

    def __init__(self, p: int, m: int, ideals: int, orbit_reps: int, multiset_size: int):
        self._fill(p, m, ideals, orbit_reps, multiset_size)


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

    rows = [(m, t.nums[1:]) for t in full_alpha_set(v, p).tuples]   # t.den == m
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


class HeckeCharacter(Record):
    """Jacobi-sum Hecke character of Q(mu_m) with exponent vector a.

    local_factor covers a totally split p, with its phi(m) ideals of norm
    p.  In dirichlet_coefficients its plan flags the other good primes as
    omitted and the ramified ones as bad, and charsum.table_degrees names
    the table a split p reads.
    """

    __slots__ = ("m", "a")

    def __init__(self, m: int, a: tuple[int, ...]):
        if m < 2:
            raise ValidationError("conductor must be at least 2")
        if not a or any(x % m == 0 for x in a):
            raise ValidationError("exponent vector entries must be nonzero mod m")
        self._fill(m, tuple(x % m for x in a))

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


class LSeriesCoefficients(Record):
    """Integer a_n for n = 1..cutoff, a_n at values[n-1]; multiplicative by
    construction.  included_primes holds (p, local degree) pairs.

    Primes whose factors are deliberately absent (bad reduction, or
    non-split primes of a split-only Hecke character) contribute a_p = 0
    and are flagged rather than silently zeroed.
    """

    __slots__ = ("cutoff", "weight", "values", "included_primes", "bad_primes",
                 "omitted_primes")

    def __init__(self, cutoff: int, weight: int, values: tuple[int, ...],
                 included_primes: tuple[tuple[int, int], ...], bad_primes: tuple[int, ...],
                 omitted_primes: tuple[int, ...]):
        self._fill(cutoff, weight, values, included_primes, bad_primes, omitted_primes)

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
    cohomology) or a HeckeCharacter.  Its plan decides each prime p up to
    the cutoff once: BAD (p divides an exponent or the conductor), OMITTED
    (a character's non-split p), or the degrees f of the tables F_{p^f}
    its factor reads (charsum.table_degrees); bad and omitted primes give
    a_n = 0.  check_table refuses a planned table with p^f <= cutoff beyond
    ffield.TABLE_BOUND, naming the first such p, before any factor is
    built.  Then each planned factor is built as a LocalFactor exact
    through t^k_max, k_max the largest k with p^k <= cutoff: a variety's
    from its Frobenius orbits of length f <= k_max alone.
    """
    if cutoff < 1:
        raise ValidationError("cutoff must be positive")
    if isinstance(source, DiagonalVariety):
        weight, rows = source.complex_dim, degree_conductors(source).values()

        def plan(p):
            if any(n % p == 0 for n in source.exponents):
                return BAD
            return table_degrees(p, rows)

        def factor(p, k_max):
            return local_factor_middle(source, p, max_root_field=p ** k_max)
    elif isinstance(source, HeckeCharacter):
        weight, m = source.weight, source.m

        def plan(p):
            if m % p == 0:
                return BAD
            if p % m != 1:
                return OMITTED
            return table_degrees(p, [(m, source.a)])

        def factor(p, k_max):
            return source.local_factor(p)
    else:
        raise ValidationError(f"unsupported coefficient source {type(source).__name__}")
    spf = _smallest_prime_factors(cutoff)
    planned, skipped = [], {BAD: [], OMITTED: []}
    for p in (n for n in range(2, cutoff + 1) if spf[n] == n):
        k_max = 0
        while p ** (k_max + 1) <= cutoff:
            k_max += 1
        degrees = plan(p)
        if degrees in (BAD, OMITTED):
            skipped[degrees].append(p)
            continue
        for f in sorted(f for f in degrees if f <= k_max):
            check_table(p, f)
        planned.append((p, k_max))
    prime_series, included = {}, []
    for p, k_max in planned:
        lf = factor(p, k_max)
        prime_series[p] = _invert_local(lf.coeffs, k_max)
        included.append((p, lf.full_degree))
    return LSeriesCoefficients(cutoff=cutoff, weight=weight,
                               values=tuple(_assemble(spf, prime_series)),
                               included_primes=tuple(included),
                               bad_primes=tuple(skipped[BAD]),
                               omitted_primes=tuple(skipped[OMITTED]))


# -- diagnostic partial sums -------------------------------------------------------

TAIL_THETA = 0.5   # divisor-growth allowance in |a_n| <= C n^(w/2 + theta)


class PartialSumResult(Value):
    """sum_{n <= cutoff} a_n n^-s and its tail bound (partial_sum_eval)."""

    __slots__ = ("s", "cutoff", "value", "tail_bound")

    def __init__(self, s: float, cutoff: int, value: float, tail_bound: float):
        self._fill(s, cutoff, value, tail_bound)


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
