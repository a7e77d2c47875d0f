"""Character-exponent tuples and exact Jacobi sums for diagonal hypersurfaces.

An admissible tuple alpha = (a_0/l_0, ..., a_s/l_s) has every entry in (0,1)
with denominator dividing the per-coordinate order and integer entry sum.
degree_set lists them all, once per orders; galois_heads gives the
unit_sums row of one tuple per Galois class (a point count and a local zeta
factor are sums over these classes), and frobenius_heads one tuple per
orbit of alpha -> p * alpha.
The Jacobi sum

    j_q(alpha) = 1/(q-1) * sum over (u_i) in (F_q^*)^{s+1}, sum u_i = 0,
                 of prod_i chi_{alpha_i}(u_i)

is evaluated exactly in Z[mu_m], once per Galois class of tuples, in one of
two ways.  For a tuple of prime conductor l in STICKELBERGER_CONDUCTORS,
over any F_{p^r} with p != l and f = ord_l(p) dividing r, Stickelberger's
theorem gives the sum in closed form: a unit times a product of Galois
conjugates of a generator pi of the degree-f prime of Z[mu_l] that the
characters reduce modulo, raised to r/f (Hasse-Davenport).  pi is p itself
when p is inert, and otherwise is found by Euclid's gcd; no field table is
built (Ireland-Rosen ch. 14; Berndt-Evans-Williams ch. 11; Weil 1952).
Every other sum (in_closed_form says which) is read off a table of the
field by the table method's kernel, tables.kernel_sums.
"""
from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from itertools import product

from .cyclo import CycInt, cyclotomic_gcd, euler_phi, s_element
from .errors import BadReductionError, InvariantViolationError, ValidationError
from .ffield import field_order, is_prime, poly_rem, root_minimal_polynomial
from .record import Value

TYPE_CHECKING = False    # true to type checkers; no run imports typing
if TYPE_CHECKING:
    from .counting import DiagonalVariety

# odd primes l whose Z[mu_l] is norm-Euclidean, and at which the closed form
# has been checked against the kernel at every split p < 10^4 and every
# non-split p < 2000 with p^f <= 2^20
STICKELBERGER_CONDUCTORS = frozenset({3, 5, 7})


class AlphaTuple(Value):
    """Entries nums[i]/den with 0 < nums[i] < den and integer sum."""

    __slots__ = ("nums", "den")

    def __init__(self, nums: tuple[int, ...], den: int):
        nums = tuple(int(n) for n in nums)
        if den < 2:
            raise ValidationError("denominator must be at least 2")
        if any(not 0 < n < den for n in nums):
            raise ValidationError("entries must lie strictly between 0 and 1")
        if sum(nums) % den:
            raise ValidationError("entry sum must be an integer")
        self._fill(nums, den)

    @property
    def conductor(self) -> int:
        """lcm of the entry denominators in lowest terms."""
        return math.lcm(*(self.den // math.gcd(n, self.den) for n in self.nums))

    def entry_denominators(self) -> tuple[int, ...]:
        return tuple(self.den // math.gcd(n, self.den) for n in self.nums)


@lru_cache(maxsize=64)
def degree_set(orders: tuple[int, ...]) -> tuple[AlphaTuple, ...]:
    """Every admissible tuple for the given per-coordinate orders, in
    lexicographic order of the numerators a_i/l_i; none if an order is 1.
    It depends on the orders alone, so it is built once per orders and
    shared by every prime."""
    den = math.lcm(*orders)
    weights = [den // l for l in orders]
    out = []
    for a in product(*(range(1, l) for l in orders)):
        nums = tuple(ai * w for ai, w in zip(a, weights))
        if sum(nums) % den == 0:
            out.append(AlphaTuple(nums, den))
    return tuple(out)


def check_good_prime(v: DiagonalVariety, p: int) -> None:
    """ValidationError unless p is prime and divides no exponent of v."""
    if not is_prime(p):
        raise ValidationError(f"{p} is not prime")
    if any(n % p == 0 for n in v.exponents):
        raise BadReductionError(f"{p} divides an exponent of {v.exponents}")


@lru_cache(maxsize=64)
def galois_heads(orders: tuple[int, ...]) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """One unit_sums row (d, exps) per Galois class of degree_set(orders):
    the class's galois_class_head, d its conductor.  (Z/d)^* acts freely on
    the tuples of conductor d, so a class has phi(d) of them, else the set
    is not Galois-closed (InvariantViolationError).  At a prime p prime to
    the orders it is phi(d)/f Frobenius orbits of length f = ord_d(p)."""
    sizes: Counter[tuple] = Counter(galois_class_head(_row(a))[0] for a in degree_set(orders))
    for (d, exps), n in sizes.items():
        if n != euler_phi(d):
            raise InvariantViolationError(f"the Galois class of {exps} mod {d} has {n} "
                                          f"tuples, not phi({d}) = {euler_phi(d)}")
    return tuple(sizes)


def frobenius_heads(orders: tuple[int, ...], p: int) -> tuple[AlphaTuple, ...]:
    """The tuples of degree_set(orders) that are least in their orbit under
    alpha -> p * alpha, p prime to the orders: in the set's lexicographic
    order, the first tuple of each Frobenius orbit."""
    den = math.lcm(*orders)
    units = [pow(p, k, den) for k in range(1, ord_m(p, den))]
    return tuple(a for a in degree_set(orders)
                 if all(a.nums <= tuple(n * u % den for n in a.nums) for u in units))


# -- Jacobi sums of prime conductor: Stickelberger's factorisation ---------------------

def ord_m(p: int, m: int) -> int:
    """The multiplicative order of p modulo m; 1 for m = 1."""
    if math.gcd(p, m) != 1:
        raise ValidationError(f"p={p} has no order mod {m}: it is not prime to {m}")
    f, x = 1, p % m
    while x > 1:                        # x is 0 only for m = 1
        x = x * p % m
        f += 1
    return f


def in_closed_form(p: int, r: int, m: int, exps) -> bool:
    """Whether unit_sums takes the row (m, exps) over F_{p^r} from
    _closed_sum: m is in STICKELBERGER_CONDUCTORS, p != m, the residue
    degree f = ord_m(p) divides r, and neither an entry nor the sum of the
    entries vanishes mod m.  (Every row of a tuple of prime conductor m
    passes the last test: its entries are nonzero, and they sum to minus
    the dropped one.)"""
    return (m in STICKELBERGER_CONDUCTORS and p % m != 0 and r % ord_m(p, m) == 0
            and all(e % m for e in exps) and sum(exps) % m != 0)


def check_tables(p: int, rows, k_max: int) -> None:
    """tables.check_table, in increasing f <= k_max, at each table F_{p^f}
    that unit_sums builds for the rows (m, exps), each summed over its
    residue field, f = ord_m(p): the f of every row not in_closed_form.
    p must be prime to every m; tables loads only if some row needs one."""
    orders = {m: ord_m(p, m) for m, _ in rows}
    for f in sorted({orders[m] for m, e in rows if orders[m] <= k_max
                     and not in_closed_form(p, orders[m], m, e)}):
        from .tables import check_table
        check_table(p, f)


@lru_cache(maxsize=256)
def _split_prime(p: int, r: int, m: int) -> tuple[CycInt, ...]:
    """sigma_t(pi) for t = 1..m-1, where pi generates the degree-f prime
    P_c = (p, h(xi)) of Z[mu_m], f = ord_m(p), and h is the minimal
    polynomial over F_p of c = g^((q-1)/m) in F_q, q = p^r
    (ffield.root_minimal_polynomial).  An inert p (f = m - 1) has
    P_c = (p), so pi = p and no g is sought; otherwise pi = gcd(p, h(xi)) by
    Euclid.  pi must have norm +-p^f and lie in P_c: h divides it mod p, so
    it vanishes at xi = c."""
    f = ord_m(p, m)
    if f == m - 1:
        pi, h = CycInt.from_int(m, p), None
    else:
        h = root_minimal_polynomial(p, r, m)
        pi = cyclotomic_gcd(CycInt.from_int(m, p), CycInt.from_exponent_counts(m, h))
    if abs(pi.norm()) != p**f:
        raise InvariantViolationError(f"the generator of P_c above {p} in Z[mu_{m}] "
                                      f"has norm {pi.norm()}, not +-{p}^{f}")
    if h is not None and any(poly_rem(pi.coeffs, h, p)):
        raise InvariantViolationError(f"gcd({p}, h(xi)) in Z[mu_{m}] is not in P_c, "
                                      f"h = {h}")
    return tuple(pi.galois(t) for t in range(1, m))


@lru_cache(maxsize=1 << 14)
def _stickelberger_element(m: int, exps: tuple[int, ...]):
    """s_element(exps, m), built once per row: the heads of one variety or
    character repeat at every prime."""
    return s_element(exps, m)


def _closed_sum(p: int, r: int, m: int, exps, memo: dict) -> CycInt:
    """The unit sum of the row (m, exps) over F_q, q = p^r, in closed form,
    where the characters read xi^dlog u = u^((q-1)/m) mod P_c.

    The sum is (-1)^(k+1) J with k = len(exps), and J = eps * beta,
    beta = prod_t sigma_t(pi)^((r/f) n_t) (Stickelberger over F_{p^f}, and
    Hasse-Davenport from F_{p^f} to F_q), eps = +-xi^s the one unit with
    J = 1 mod (1 - xi)^2.  With lambda = 1 - xi, beta = sum b_k xi^k is
    sum b_k - (sum k b_k) lambda mod lambda^2, and sum b_k must be +-1 mod
    m; that fixes eps.  n_t = (sum_i <u a_i> - <u sum a>) / m with
    u = -t^-1 and <x> = x mod m, which is S(exps)[-t mod m] for the
    Stickelberger element S = cyclo.s_element; J depends on exps only
    through S(exps), and memo keeps it on that.
    """
    key = _stickelberger_element(m, tuple(exps))
    if key not in memo:
        n, scale = key.as_dict(), r // ord_m(p, m)
        beta = CycInt.one(m)
        for t, sigma_pi in enumerate(_split_prime(p, r, m), 1):
            if n[-t % m]:
                beta = beta * sigma_pi ** (scale * n[-t % m])
        sign = {1: 1, m - 1: -1}.get(sum(beta.coeffs) % m)
        if sign is None:
            raise InvariantViolationError(
                f"pi^theta is not +-1 mod (1 - xi) at p={p}, r={r}, conductor {m}")
        shift = -sign * sum(i * b for i, b in enumerate(beta.coeffs))
        memo[key] = sign * CycInt.root(m, shift) * beta
    return (-1) ** (len(exps) + 1) * memo[key]


# -- Jacobi sums: one per Galois class ------------------------------------------------

@lru_cache(maxsize=1 << 14)
def galois_class_head(row: tuple) -> tuple[tuple, int]:
    """((m, head), l_inv) for a row (m, exps): head is the least l*exps mod m
    over l in (Z/m)^*, and exps = l_inv * head mod m.  Every row of one
    Galois class gets the same head, and its unit sum is sigma_{l_inv} of
    the head's."""
    m, exps = row
    head, l = min((tuple(e * l % m for e in exps), l)
                  for l in range(1, m + 1) if math.gcd(l, m) == 1)
    return (m, head), pow(l, -1, m)


def unit_sums(field: tuple[int, int], rows) -> list[CycInt]:
    """For each row (m, (e_0..e_k)): the sum over units u_0..u_k of F_q with
    u_0 + ... + u_k = -1 of prod_i xi_m^(e_i * dlog u_i), exact in Z[mu_m].

    field is the pair (p, r) for F_q, q = p^r, checked by field_order; dlog
    is to base g of ffield.field_generator(p, r), tables.make_field's too
    (primitive_root(p) when r = 1).  Scaling a row by l in (Z/m)^* applies
    sigma_l to its sum (Ireland-Rosen ch. 8 and 14), so each Galois class
    is evaluated once, on its head, and every other row is read off as
    sigma_{l_inv} of its head's sum.  A head in_closed_form is computed by
    _closed_sum with no table; the rest go to tables.kernel_sums, which
    tabulates F_q, and this imports the table method only if some head does.
    """
    p, r = field
    field_order(p, r)
    placed = [galois_class_head((m, tuple(exps))) for m, exps in rows]
    heads = dict.fromkeys(h for h, _ in placed)
    by_head: dict[tuple, CycInt] = {}
    memo: dict[tuple, CycInt] = {}
    for m, e in heads:
        if in_closed_form(p, r, m, e):
            by_head[m, e] = _closed_sum(p, r, m, e, memo)
    kernel = [h for h in heads if h not in by_head]
    if kernel:
        from .tables import kernel_sums
        by_head.update(kernel_sums(p, r, kernel))
    return [by_head[h] if l_inv == 1 else by_head[h].galois(l_inv) for h, l_inv in placed]


def _row(alpha: AlphaTuple) -> tuple[int, tuple[int, ...]]:
    """The unit_sums row (m, (e_0..e_{s-1})) of alpha, m its conductor, with
    chi_{alpha_i}(g^k) = xi_m^(e_i k); the last character is scaled away."""
    m = alpha.conductor
    return m, tuple(m * n // alpha.den for n in alpha.nums[:-1])


def jacobi_sums(field: tuple[int, int], alphas) -> list[CycInt]:
    """Exact j_q(alpha) in Z[mu_m], m the conductor, for every alpha, in input
    order, over the field (p, r) of unit_sums, from each alpha's _row.
    unit_sums evaluates one sum per Galois class, and tabulates F_q only
    for the classes that have no closed form.  Each sum must meet Weil's
    bound exactly, |J|^2 = q^(s-2) for s entries (InvariantViolationError)."""
    alphas = list(alphas)
    sums = unit_sums(field, [_row(a) for a in alphas])
    q = field[0] ** field[1]
    for a, j in zip(alphas, sums):
        w = len(a.nums) - 2
        if j * j.conj() != CycInt.from_int(j.m, q ** w):
            raise InvariantViolationError(f"|J|^2 != {q}^{w} for alpha {a.nums}/{a.den}")
    return sums


def jacobi_sum(field: tuple[int, int], alpha: AlphaTuple) -> CycInt:
    """Exact j_q(alpha) in Z[mu_m]; see jacobi_sums."""
    return jacobi_sums(field, [alpha])[0]
