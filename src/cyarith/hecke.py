"""Jacobi-sum Hecke characters, the Hasse-Weil match and L-series coefficients.

A prime p = 1 mod m splits completely in Q(mu_m), into phi(m) primes of
norm p, whose power-residue characters of order m on F_p^* are the
conjugates chi^l, l in (Z/m)^*, of one.  So the local data of the
Jacobi-sum character J_a at p are the conjugates of one sum, one Galois
class; the tests' oracle labels which prime carries which.  Rank-r Jacobi
sums at these primes reproduce the middle local factor of the matching
diagonal hypersurface (Weil's factorisation), which is the whole point of
the exercise.  Where charsum.in_closed_form holds, the sum is
Stickelberger's closed form and needs no table, so such a character has no
prime bound; other characters read F_p's table, up to tables.TABLE_BOUND.

Every factor here (a variety's, a Jacobi-sum character's, match's Hecke
side) comes from zeta.galois_factor as a LocalFactor, expanded in Z[t] and
checked by its constructor, so every a_n is a plain int.
dirichlet_coefficients reads either source as its weight and Galois-class
rows, decides each prime once, by one plan (bad, omitted, or planned with
its tables checked by charsum.check_tables), and builds every planned
factor from the rows by galois_factor.
"""
from __future__ import annotations

import math

from .charsum import check_good_prime, check_tables, galois_heads, ord_m
from .counting import DiagonalVariety
from .cyclo import euler_phi, hecke_weight
from .errors import InvariantViolationError, ValidationError
from .record import Record, Value
from .zeta import LocalFactor, galois_factor, local_factor_middle


# -- Hasse-Weil vs Hecke local data -----------------------------------------------


class MatchReport(Value):
    """What match_hasse_weil compared at p; orbit_reps counts the
    Galois-class heads."""

    __slots__ = ("p", "m", "ideals", "orbit_reps", "multiset_size")

    def __init__(self, p: int, m: int, ideals: int, orbit_reps: int, multiset_size: int):
        self._fill(p, m, ideals, orbit_reps, multiset_size)


def match_hasse_weil(v: DiagonalVariety, p: int,
                     lf: LocalFactor | None = None) -> MatchReport:
    """Check Weil's factorisation at a split p: lf's coefficients must be
    those of the Hecke classes (J, 1, phi(d)) of the Galois-class heads,
    d the conductor (InvariantViolationError if not).  zeta.galois_factor
    sums J afresh, on rows that drop the head's first entry where the zeta
    side drops its last, so a cached lf meets new sums."""
    m = math.lcm(*v.exponents)
    check_good_prime(v, p)
    f = ord_m(p, m)
    if f != 1:
        raise ValidationError(f"p={p} is not split (f={f}); match needs p = 1 mod {m}")
    if lf is None:
        lf = local_factor_middle(v, p)
    rows = [(d, e[1:] + (-sum(e) % d,)) for d, e in galois_heads(v.exponents)]
    if galois_factor(p, v.complex_dim, rows).coeffs != lf.coeffs:
        raise InvariantViolationError(
            f"the zeta factor and the Hecke factors of its heads disagree at p={p}")
    return MatchReport(p=p, m=m, ideals=euler_phi(m), orbit_reps=len(rows),
                       multiset_size=sum(n for *_, n in lf.classes))


# -- Dirichlet coefficients --------------------------------------------------------

class HeckeCharacter(Record):
    """Jacobi-sum Hecke character of Q(mu_m) with exponent vector a.

    local_factor covers a totally split p, with its phi(m) ideals of norm
    p.  dirichlet_coefficients reads the character as the one class row
    (m, a) split by m: the plan flags the other good primes as omitted and
    the ramified ones as bad, and builds a split p's factor from the row.
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
        """prod of (1 - J t) over the sums J at the phi(m) primes above a
        split p, as a LocalFactor of degree phi(m) with the weight in
        cohomology_degree: zeta.galois_factor of the one class row (m, a).

        Its product is a norm power and lies in Z[t]; building the
        LocalFactor checks that exactly, with |J|^2 = p^weight and the
        functional equation.
        """
        if p % self.m != 1:
            raise ValidationError(f"p={p} is not totally split mod {self.m}")
        return galois_factor(p, self.weight, [(self.m, self.a)])


class LSeriesCoefficients(Record):
    """Integer a_n for n = 1..cutoff, a_n at values[n-1]; multiplicative by
    construction.  included_primes holds the primes whose factors were
    built; the local degree belongs to the source.

    Primes whose factors are deliberately absent (bad reduction, or
    non-split primes of a split-only Hecke character) contribute a_p = 0
    and are flagged rather than silently zeroed.
    """

    __slots__ = ("cutoff", "weight", "values", "included_primes", "bad_primes",
                 "omitted_primes")

    def __init__(self, cutoff: int, weight: int, values: tuple[int, ...],
                 included_primes: tuple[int, ...], bad_primes: tuple[int, ...],
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
    cohomology) or a HeckeCharacter, read once as its weight, its Galois-class
    rows, the moduli whose prime divisors are bad (the exponents, or m) and
    the modulus a character splits by (None for a variety).  One plan decides
    each prime p up to the cutoff once: bad, omitted (a character's non-split
    p) or planned; bad and omitted primes give a_n = 0.  charsum.check_tables
    refuses a planned table F_{p^f} with p^f <= cutoff beyond
    tables.TABLE_BOUND, naming the first such p, before any factor is
    built.  Each factor is zeta.galois_factor of the rows, exact through
    t^k_max, k_max the largest k with p^k <= cutoff.
    """
    if cutoff < 1:
        raise ValidationError("cutoff must be positive")
    if isinstance(source, DiagonalVariety):
        weight, rows = source.complex_dim, galois_heads(source.exponents)
        moduli, split = source.exponents, None
    elif isinstance(source, HeckeCharacter):
        weight, rows = source.weight, ((source.m, source.a),)
        moduli, split = (source.m,), source.m
    else:
        raise ValidationError(f"unsupported coefficient source {type(source).__name__}")
    # one row per conductor: every row of a tuple of prime conductor passes
    # in_closed_form's entry tests
    plan_rows = {r[0]: r for r in rows}.values()
    spf = _smallest_prime_factors(cutoff)
    planned, bad, omitted = [], [], []
    for p in (n for n in range(2, cutoff + 1) if spf[n] == n):
        if any(n % p == 0 for n in moduli):
            bad.append(p)
        elif split is not None and p % split != 1:
            omitted.append(p)
        else:
            k_max = 1
            while p ** (k_max + 1) <= cutoff:
                k_max += 1
            check_tables(p, plan_rows, k_max)
            planned.append((p, k_max))
    prime_series = {p: _invert_local(galois_factor(p, weight, rows, p ** k_max).coeffs, k_max)
                    for p, k_max in planned}
    return LSeriesCoefficients(cutoff=cutoff, weight=weight,
                               values=tuple(_assemble(spf, prime_series)),
                               included_primes=tuple(prime_series),
                               bad_primes=tuple(bad), omitted_primes=tuple(omitted))


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
