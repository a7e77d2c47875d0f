"""Congruent zeta functions of diagonal hypersurfaces via Jacobi sums.

The middle local factor at a good prime p is the product over Frobenius
orbits of the degree set A of (1 - J t^f), where f is the orbit length and
J the Jacobi sum of the orbit representative over F_{p^f}.  The roots fall
into Galois classes (sigma_l J(alpha) = J(l*alpha)); each class's norm
polynomial is expanded exactly in Z[mu_M] and must lie in Z[t], and the
factor is the product of those integer polynomials.  The point-count
trace, Riemann hypothesis and functional equation serve as exact
self-checks rather than floating-point diagnostics.  A LocalFactor expands
and checks its roots when built, and a complete one also checks the
functional equation and keeps its sign, so fresh, cached and Hecke factors
pass one gate.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field as dc_field

from .charsum import AlphaTuple, full_alpha_set, jacobi_sums
from .counting import DiagonalVariety
from .cyclo import CycInt
from .errors import InvariantViolationError, ValidationError


@dataclass(frozen=True, eq=False)
class LocalFactor:
    """Middle local factor P(t) = prod over orbits of (1 - J t^f).

    When orbits were skipped because their Jacobi sums would live over a
    field beyond a caller-imposed cap, `precision` is the largest power of
    t to which `coeffs` is still exact; None means the factor is complete.
    Building one computes `coeffs` by expand_roots, which checks the roots.
    A complete factor of degree B must also satisfy the functional equation
    t^B p^{iB/2} P(1/(p^i t)) = sign * P(t) exactly, and keeps its sign;
    a truncated one has sign None.
    """

    p: int
    cohomology_degree: int                    # "i" in P_i: middle degree n, or a Hecke weight
    full_degree: int                          # |A| = sum of all orbit sizes, or phi(m)
    orbits: tuple[tuple[CycInt, int], ...]    # computed (J, f) pairs
    precision: int | None = None
    coeffs: tuple[int, ...] = dc_field(init=False)
    sign: int | None = dc_field(init=False)

    def __post_init__(self):
        i, p = self.cohomology_degree, self.p
        c = expand_roots(self.orbits, p ** i, self.precision)
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "sign", None)
        if self.precision is not None:
            return
        B = len(c) - 1
        if B != self.full_degree:
            raise InvariantViolationError("expanded degree disagrees with |A|")
        if (i * B) % 2:
            raise InvariantViolationError("i*B odd: no integral palindrome normalisation")
        if abs(c[B]) != p ** (i * B // 2):
            raise InvariantViolationError(
                f"|leading coeff| = {abs(c[B])} != p^(iB/2) = {p ** (i * B // 2)}")
        sign = 1 if c[B] > 0 else -1
        if any(c[B - k] != sign * c[k] * p ** (i * (B - 2 * k) // 2)
               for k in range(B // 2 + 1)):
            raise InvariantViolationError("palindrome fails for the forced sign")
        object.__setattr__(self, "sign", sign)

    @property
    def is_exact(self) -> bool:
        return self.precision is None

    @property
    def degree(self) -> int:
        if not self.is_exact:
            raise ValidationError("truncated factor: degree is full_degree")
        return len(self.coeffs) - 1


def expand_roots(orbits, base: int, trunc: int | None) -> tuple[int, ...]:
    """Integer coefficients of prod (1 - J t^f) over the (J, f) pairs, through
    t^trunc if given; the one place the roots of a local factor are checked.

    sigma_l J(alpha) = J(l*alpha), so the roots fall into Galois classes of
    Z[mu_M], M the lcm of the J's conductors.  Each class of a given f is
    checked three ways (InvariantViolationError on a failure):
      - |J|^2 = base^f (RH, base = p^weight) at its head, which covers every
        conjugate, as sigma_l commutes with complex conjugation;
      - every conjugate occurs with the head's multiplicity (Galois closure);
      - its norm polynomial N(u) = prod (1 - c u) over the distinct
        conjugates c, expanded in Z[mu_M], lies in Z[u] (rational_value).
    Classes share norm polynomials (a split prime of the quintic has 51
    classes and at most 2 distinct N), so the factor is the product over
    distinct (N, f) of N(t^f)^e, e the summed multiplicity: each power is
    taken by Miller's recurrence (_norm_power) and multiplied in once, and
    the product must have constant term 1.  LocalFactor adds the degree,
    palindrome and sign checks of a complete factor.
    """
    big_m = math.lcm(*(j.m for j, _ in orbits))  # 1 for no roots
    units = [l for l in range(1, big_m + 1) if math.gcd(l, big_m) == 1]
    left = Counter((j.lift(big_m), f) for j, f in orbits)
    powers: Counter[tuple[tuple[int, ...], int]] = Counter()
    while left:
        j, f = next(iter(left))
        if j * j.conj() != CycInt.from_int(big_m, base ** f):
            raise InvariantViolationError(f"|J|^2 != {base}^{f} for the root {j.coeffs}")
        mult = left[j, f]
        conjugates = {j.galois(l) for l in units}
        for c in conjugates:
            if left.pop((c, f), 0) != mult:
                raise InvariantViolationError(
                    f"roots are not Galois-closed: a conjugate of the f={f} "
                    f"root {j.coeffs} does not occur {mult} times")
        zero, norm = CycInt.zero(big_m), [CycInt.one(big_m)]
        for c in conjugates:
            norm = [a - c * b for a, b in zip(norm + [zero], [zero] + norm)]
        powers[tuple(c.rational_value() for c in norm), f] += mult  # raises if not in Z
    out = _expand_powers(powers, trunc)
    if out[0] != 1:
        raise InvariantViolationError("local factor must have constant term 1")
    return tuple(out)


def _expand_powers(powers, trunc: int | None) -> list[int]:
    """prod of n(t^f)^e over the ((n, f), e) items of powers, n integer
    polynomials with n(0) = 1, through t^trunc if given: each power is taken
    by _norm_power and multiplied in once."""
    out = [1]
    for (n, f), e in powers.items():
        out = _mul_in_power(out, _norm_power(n, e, None if trunc is None else trunc // f),
                            f, trunc)
    # a power cut at u^(trunc // f) can leave out short of t^trunc: pad it
    width = 1 + sum(e * (len(n) - 1) * f for (n, f), e in powers.items())
    if trunc is not None:
        width = min(width, trunc + 1)
    return out + [0] * (width - len(out))


def _norm_power(n, e: int, top: int | None) -> list[int]:
    """n(u)^e through u^top if given, for an integer n with n(0) = 1.

    J. C. P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7): P = n^e obeys
    n P' = e n' P, so P_0 = 1 and k P_k = sum_{j=1..d} ((e+1) j - k) n_j P_{k-j},
    O(e d^2) operations for d = deg n.  P lies in Z[u], so a division that
    leaves a remainder is an InvariantViolationError.
    """
    if n[0] != 1:
        raise InvariantViolationError(f"norm polynomial has constant term {n[0]}, not 1")
    d = len(n) - 1
    width = e * d if top is None else min(e * d, top)
    terms = [(j, (e + 1) * j, nj) for j, nj in enumerate(n) if j and nj]
    out = [1]
    for k in range(1, width + 1):
        pk, rem = divmod(sum((ej - k) * nj * out[k - j] for j, ej, nj in terms if j <= k), k)
        if rem:
            raise InvariantViolationError(f"{n}^{e} is not integral at u^{k}")
        out.append(pk)
    return out


def _mul_in_power(a: list[int], b: list[int], f: int, trunc: int | None) -> list[int]:
    """a(t) * b(t^f), through t^trunc if given."""
    width = len(a) + (len(b) - 1) * f
    if trunc is not None:
        width = min(width, trunc + 1)
    out = [0] * width
    for k, bk in enumerate(b):
        if bk:
            for i in range(min(len(a), width - k * f)):
                out[i + k * f] += bk * a[i]
    return out


def local_factor_middle(v: DiagonalVariety, p: int,
                        max_root_field: int | None = None) -> LocalFactor:
    """Middle local factor at a good prime.

    The degree set is partitioned into Frobenius orbits under a -> p*a; an
    orbit of size f needs one Jacobi sum over F_{p^f}.  max_root_field caps
    that auxiliary field size: orbits with p^f beyond the cap are skipped
    and the returned factor is truncated to the precision that stays exact.
    charsum.jacobi_sums builds a table of F_{p^f} only for the orbits whose
    sums are not in closed form (charsum.in_closed_form).
    """
    aset = full_alpha_set(v, p)  # validates primality and good reduction
    n = v.complex_dim
    reps: list[tuple[AlphaTuple, int]] = [(o[0], len(o)) for o in aset.orbits]

    skipped = [f for _, f in reps
               if max_root_field is not None and p ** f > max_root_field]
    precision = None if not skipped else min(skipped) - 1

    by_f: dict[int, list[AlphaTuple]] = {}
    for rep, f in reps:
        if precision is None or f <= precision:
            by_f.setdefault(f, []).append(rep)

    # Weil's sign: the reciprocal root attached to alpha is (-1)^n times the
    # plain hyperplane Jacobi sum (minus for odd middle dimension, plus for
    # even), pinned by the exact point-count oracle at p=2,7,11.
    root_sign = (-1) ** n
    orbits: list[tuple[CycInt, int]] = []
    for f in sorted(by_f):
        orbits += [(root_sign * j, f) for j in jacobi_sums((p, f), by_f[f])]
    return LocalFactor(p=p, cohomology_degree=n, full_degree=len(aset.tuples),
                       orbits=tuple(orbits), precision=precision)


def predicted_count(lf: LocalFactor, r: int) -> int:
    """N_r of the variety whose middle factor at lf.p is lf, read off the
    zeta shape Z(t) = P(t)^{(-1)^{n+1}} / prod_{j=0..n} (1 - p^j t).

    N_r = sum_{j=0..n} p^{jr} + (-1)^n s_r, with n = lf.cohomology_degree and
    s_r the r-th power sum of the reciprocal roots of P(t) = lf.coeffs =
    1 + c_1 t + ...  Newton's
    identities give it from the integer coefficients alone:
    s_k = -k c_k - sum_{0<i<k} c_i s_{k-i}.  The sign is minus for odd middle
    dimension (factor in the numerator) and plus for even (factor in the
    denominator, e.g. K3 primitive classes).  A truncated factor is exact
    through t^precision, which bounds r.
    """
    if r < 1:
        raise ValidationError("power index must be positive")
    if lf.precision is not None and r > lf.precision:
        raise ValidationError(
            f"factor truncated at t^{lf.precision}; cannot predict N_{r}")
    n = lf.cohomology_degree
    c = list(lf.coeffs[:r + 1]) + [0] * (r + 1 - len(lf.coeffs))
    s = [0] * (r + 1)
    for k in range(1, r + 1):
        s[k] = -k * c[k] - sum(c[i] * s[k - i] for i in range(1, k))
    return sum(lf.p ** (j * r) for j in range(n + 1)) + (-1) ** n * s[r]


def expected_degrees(hodge: dict[str, int] | None, n: int) -> dict[int, int]:
    """Degree table {i: deg P_i} of the zeta factorisation, n in 1..4.

    n=1 uses h10 (the genus, default 1); n=2 is the rigid K3 diamond;
    n=3 needs h11 and h21; n=4 needs h11, h21, h31, h22.
    """
    hodge = dict(hodge or {})
    if n == 1:
        g = hodge.get("h10", 1)
        return {0: 1, 1: 2 * g, 2: 1}
    if n == 2:
        return {0: 1, 1: 0, 2: 22, 3: 0, 4: 1}
    missing = [h for h in {3: ("h11", "h21"), 4: ("h11", "h21", "h31", "h22")}.get(n, ())
               if h not in hodge]
    if missing:
        raise ValidationError(f"complex dimension {n} needs Hodge numbers {', '.join(missing)}")
    if n == 3:
        h11, h21 = hodge["h11"], hodge["h21"]
        return {0: 1, 1: 0, 2: h11, 3: 2 + 2 * h21, 4: h11, 5: 0, 6: 1}
    if n == 4:
        h11, h21 = hodge["h11"], hodge["h21"]
        h31, h22 = hodge["h31"], hodge["h22"]
        return {0: 1, 1: 0, 2: h11, 3: 2 * h21, 4: 2 + 2 * h31 + h22,
                5: 2 * h21, 6: h11, 7: 0, 8: 1}
    raise ValidationError(f"no degree table for complex dimension {n}")
