"""Congruent zeta functions of diagonal hypersurfaces via Jacobi sums.

The middle local factor at a good prime p is the product over Frobenius
orbits of the degree set A of (1 - J t^f), where f is the orbit length and
J the Jacobi sum of the orbit representative over F_{p^f}.  The n orbits
of one Galois class carry the conjugates of one sum (Weil 1952), so a
factor is held as classes (J_head, f, n), each expanded by its integer
norm polynomial; galois_factor builds a variety's, a Hecke character's and
match's Hecke side from one unit_sums row per class.  The point-count
trace, RH and functional equation are exact self-checks: a LocalFactor
checks its classes when built, and a complete one its functional
equation, keeping its sign, so fresh, cached and Hecke factors pass one gate.
"""
from __future__ import annotations

import math
from collections import Counter

from .charsum import check_good_prime, galois_heads, ord_m, unit_sums
from .counting import DiagonalVariety
from .cyclo import CycInt, euler_phi
from .errors import InvariantViolationError, ValidationError
from .record import Record


class LocalFactor(Record):
    """Middle local factor P(t) = prod over orbits of (1 - J t^f).

    cohomology_degree is the "i" of P_i: the middle degree n, or a Hecke
    weight.  full_degree is |A| or phi(m).  classes holds the computed
    Galois classes (J, f, n) of expand_roots.  When classes were skipped
    because their sums would live over a field beyond a caller-imposed cap,
    `precision` is the largest power of t to which `coeffs` is still exact;
    None means the factor is complete.  Building one computes `coeffs` by
    expand_roots, which checks the classes.  A complete factor of degree B
    must also satisfy t^B p^{iB/2} P(1/(p^i t)) = sign * P(t) exactly, and
    keeps its sign; a truncated one has sign None.
    """

    __slots__ = ("p", "cohomology_degree", "full_degree", "classes", "precision",
                 "coeffs", "sign")

    def __init__(self, p: int, cohomology_degree: int, full_degree: int,
                 classes: tuple[tuple[CycInt, int, int], ...], precision: int | None = None):
        i = cohomology_degree
        c = expand_roots(classes, p ** i, precision)
        sign = None
        if precision is None:
            B = len(c) - 1
            if B != full_degree:
                raise InvariantViolationError("expanded degree disagrees with |A|")
            if (i * B) % 2:
                raise InvariantViolationError("i*B odd: no integral palindrome normalisation")
            if abs(c[B]) != p ** (i * B // 2):
                raise InvariantViolationError(
                    f"|leading coeff| = {abs(c[B])} != p^(iB/2) = {p ** (i * B // 2)}")
            sign = 1 if c[B] > 0 else -1
            # c[B-k] = sign c[k] p^(i(B-2k)/2), the power kept running as k
            # walks down from B//2, one factor p^i per step
            step, power = p ** i, p ** (i * (B % 2) // 2)
            for k in range(B // 2, -1, -1):
                if c[B - k] != sign * c[k] * power:
                    raise InvariantViolationError("palindrome fails for the forced sign")
                power *= step
        self._fill(p, cohomology_degree, full_degree, classes, precision, c, sign)

    @property
    def is_exact(self) -> bool:
        return self.precision is None

    @property
    def degree(self) -> int:
        if not self.is_exact:
            raise ValidationError("truncated factor: degree is full_degree")
        return len(self.coeffs) - 1


def expand_roots(classes, base: int, trunc: int | None) -> tuple[int, ...]:
    """Integer coefficients of the product over the classes (J, f, n) of n
    factors (1 - c t^f), c running over the k distinct conjugates of J
    equally often, through t^trunc if given; the one place the roots of a
    local factor are checked.

    Classes of one f with conjugate sums are merged (the quintic's 51
    classes at p = 2 are all -64), and each merged class is checked four
    ways (InvariantViolationError on a failure):
      - |J|^2 = base^f (RH, base = p^weight), which covers every conjugate,
        as sigma_l commutes with complex conjugation;
      - a root of odd prime conductor l is 1 mod (1 - xi)^2 (Iwasawa's
        congruence): with xi^k = 1 - k(1 - xi) mod (1 - xi)^2, sum(c) = 1
        and sum(k c_k) = 0 mod l; the ideal is Galois-stable, so this too
        covers every conjugate, and it pins the sum among those of its norm;
      - every n is a whole number of copies of the k conjugates;
      - its norm polynomial N(u) = prod (1 - c u) over them, expanded in
        Z[mu_m], lies in Z[u] (rational_value).
    The factor is the product over distinct (N, f) of N(t^f)^e, e the
    summed n / k (a split prime of the quintic has 2 distinct N): each
    power is taken by Miller's recurrence (_norm_power) and multiplied in
    once, and the product must have constant term 1.  LocalFactor adds the
    degree, palindrome and sign checks of a complete factor.
    """
    left: dict[tuple[CycInt, int], list[int]] = {}
    for j, f, n in classes:
        left.setdefault((j, f), []).append(n)
    powers: Counter[tuple[tuple[int, ...], int]] = Counter()
    while left:
        j, f = next(iter(left))
        if j * j.conj() != CycInt.from_int(j.m, base ** f):
            raise InvariantViolationError(f"|J|^2 != {base}^{f} for the root {j.coeffs}")
        if j.m > 2 and len(j.coeffs) == j.m - 1 and (      # phi(m) = m - 1: m prime
                (sum(j.coeffs) - 1) % j.m or sum(k * c for k, c in enumerate(j.coeffs)) % j.m):
            raise InvariantViolationError(f"the root {j.coeffs} is not 1 mod (1 - xi)^2")
        conjugates = {j} | {j.galois(l) for l in range(2, j.m) if math.gcd(l, j.m) == 1}
        counts = [n for c in conjugates for n in left.pop((c, f), ())]
        k = len(conjugates)
        if any(n % k for n in counts):
            raise InvariantViolationError(
                f"the f={f} class of {j.coeffs} has {counts} roots, not whole copies "
                f"of its {k} conjugates")
        zero, norm = CycInt.zero(j.m), [CycInt.one(j.m)]
        for c in conjugates:
            norm = [a - c * b for a, b in zip(norm + [zero], [zero] + norm)]
        powers[tuple(c.rational_value() for c in norm), f] += sum(counts) // k  # raises if not in Z
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


def galois_factor(p: int, weight: int, rows,
                  max_root_field: int | None = None) -> LocalFactor:
    """The LocalFactor of cohomology degree weight at p of the Galois classes
    whose unit_sums rows (d, exps) the sequence rows lists, one per class:
    Weil's factorisation, and the one place a factor is built from sums.  A
    class is phi(d)/f orbits of length f = ord_d(p), its root the row's sum
    over F_{p^f} times Weil's sign (-1)^(len(exps)+1), pinned by the exact
    point-count oracle at p=2,7,11; unit_sums runs once per f.  Classes with
    p^f beyond max_root_field are skipped, and the factor is truncated to the
    precision that stays exact."""
    by_f = {}
    for row in rows:
        by_f.setdefault(ord_m(p, row[0]), []).append(row)
    skipped = [f for f in by_f if max_root_field is not None and p ** f > max_root_field]
    precision = None if not skipped else min(skipped) - 1
    classes: list[tuple[CycInt, int, int]] = []
    for f in sorted(f for f in by_f if precision is None or f <= precision):
        classes += [((-1) ** (len(exps) + 1) * j, f, euler_phi(d) // f)
                    for (d, exps), j in zip(by_f[f], unit_sums((p, f), by_f[f]))]
    return LocalFactor(p=p, cohomology_degree=weight,
                       full_degree=sum(euler_phi(d) for d, _ in rows),
                       classes=tuple(classes), precision=precision)


def local_factor_middle(v: DiagonalVariety, p: int,
                        max_root_field: int | None = None) -> LocalFactor:
    """Middle local factor at a good prime: galois_factor of the Galois
    classes of the degree set (charsum.galois_heads)."""
    check_good_prime(v, p)
    return galois_factor(p, v.complex_dim, galois_heads(v.exponents), max_root_field)


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
