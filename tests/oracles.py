"""Brute-force references that only the tests use.

`jacobi_sum_direct` sums a Jacobi sum over every hyperplane tuple and
`count_affine_direct` enumerates the affine grid: the oracles of
`charsum.jacobi_sums` and `counting.count_affine`, each with its own
enumeration budget.  `expand_roots_direct` is the per-coefficient expansion
that `zeta.expand_roots` replaced, and `expand_powers_by_class` multiplies
norm polynomials in one Galois class at a time, as `zeta.expand_roots` did
before it took one power per distinct norm polynomial.  `unit_sums_per_row` runs the kernel
once per row instead of once per Galois class, and `jacobi_sums_per_alpha`
reads every tuple off it, so neither goes through the class-head reduction
or the split-prime closed form of `charsum.unit_sums`.
`frobenius_orbits` walks the Frobenius orbits of the degree set on its own
grid, the oracle of `charsum.frobenius_heads`, and `orbit_roots` takes one
Jacobi sum per orbit, as `zeta.local_factor_middle` did before it took one
sum per Galois class, and `class_roots` spells a factor's classes out as
those roots.
`predicted_count_direct` takes N_r from the roots' powers in Z[mu_M]
instead of Newton's identities on the integer factor.
`eta_product` expands a product of Dedekind eta functions from Euler's
pentagonal series, and `kronecker` is the Kronecker symbol that twists
one: the L-series oracles, independent of every Jacobi sum (Martin-Ono,
"Eta-quotients and elliptic curves", Proc. AMS 125, 1997).
`split_prime_ideals` labels the phi(m) primes above a totally split p by
the residues c of xi, `power_residue_char` reads a prime's character off
its label, and `ideal_jacobi_sums` takes the Jacobi sums ideal by ideal:
the labelled-ideal layer that a Hecke factor's one Galois class replaced,
kept as the independent check of which conjugate sums the primes above p
carry.
The scalar and vectorised field operations at the end read the field's
exp/dlog tables; for addition they derive the base-p digit rows from the
element index themselves, so nothing here shares the kernel's Zech table.
`smallest_generator_direct` finds make_field's default generator by taking
the order of every element index in turn with `mul`, and `with_generator`
re-indexes a table's logarithms to another generator.
"""

import math
from functools import lru_cache
from itertools import product

import numpy as np

from cyarith.charsum import (AlphaTuple, _row, _unit_sum, dlog_pair_table, jacobi_sums, ord_m,
                             unit_sums)
from cyarith.cyclo import CycInt, euler_phi
from cyarith.errors import CapacityError, InvariantViolationError, ValidationError
from cyarith.ffield import FieldTable, is_prime, primitive_root
from cyarith.record import Record

DIRECT_SUM_BUDGET = 1 << 28     # (q-1)^s cap for the direct Jacobi summation
DIRECT_ENUM_BUDGET = 1 << 25    # affine grid cells for the exhaustive count


def jacobi_sum_direct(f, alpha):
    """j_q(alpha) by direct summation over all nonzero hyperplane tuples."""
    s1 = len(alpha.nums)
    s = s1 - 1
    q = f.q
    if (q - 1) ** s > DIRECT_SUM_BUDGET:
        raise CapacityError("direct Jacobi summation exceeds the enumeration budget")
    for d in alpha.entry_denominators():
        if (q - 1) % d:
            raise ValidationError(f"character order {d} does not divide q-1")
    m = alpha.conductor
    mult = [m * n // alpha.den for n in alpha.nums]
    dl = np.where(f.dlog >= 0, f.dlog, 0)
    U = np.arange(1, q, dtype=np.int64)
    nv = min(3, s)
    buckets = [0] * m

    vexp = np.zeros((1,) * nv, dtype=np.int64)
    for j in range(nv):
        i = s - nv + j
        vexp = vexp + (mult[i] * dl[U]).reshape((1,) * j + (q - 1,) + (1,) * (nv - 1 - j))

    vsum = np.zeros((1,) * nv + (f.r,), dtype=np.int64)
    for j in range(nv):
        vsum = vsum + digits(f, U).reshape((1,) * j + (q - 1,) + (1,) * (nv - 1 - j) + (f.r,))

    for prefix in product(range(1, q), repeat=s - nv):
        part = sum((digits(f, u) for u in prefix), np.zeros(f.r, dtype=np.int64))
        dep = encode(f, -(part + vsum))
        mask = dep != 0
        e = (vexp + mult[s] * dl[dep]) % m
        for i, u in enumerate(prefix):
            e = (e + mult[i] * int(dl[u])) % m
        cnt = np.bincount(e[mask], minlength=m)
        for k in range(m):
            buckets[k] += int(cnt[k])
    if any(b % (q - 1) for b in buckets):
        raise InvariantViolationError("character sum not divisible by q-1")
    return CycInt.from_exponent_counts(m, [b // (q - 1) for b in buckets])


def count_affine_direct(v, f):
    """Affine F_q solutions of sum_i x_i^{n_i} = 0, by enumerating the grid."""
    s1 = len(v.exponents)
    q, r = f.q, f.r
    if q**s1 > DIRECT_ENUM_BUDGET:
        raise CapacityError(f"direct enumeration capped at q^(s+1) <= {DIRECT_ENUM_BUDGET}")
    pows = [vpow(f, np.arange(q, dtype=np.int64), n) for n in v.exponents]
    nv = min(3, s1)
    loop_pows, vec_pows = pows[: s1 - nv], pows[s1 - nv:]
    total = 0
    vdig = np.zeros((1,) * nv + (r,), dtype=np.int64)
    for j, vp in enumerate(vec_pows):
        vdig = vdig + digits(f, vp).reshape((1,) * j + (q,) + (1,) * (nv - 1 - j) + (r,))
    for prefix in product(range(q), repeat=s1 - nv):
        part = sum((digits(f, tbl[x]) for tbl, x in zip(loop_pows, prefix)),
                   np.zeros(r, dtype=np.int64))
        zero = (((part + vdig) % f.p) == 0).all(axis=-1)
        total += int(zero.sum())
    return total


def expand_roots_direct(roots, trunc):
    """prod (1 - J t^f) multiplied out one CycInt coefficient at a time in
    Z[mu_M], M the lcm of the conductors, through t^trunc if given."""
    if not roots:
        return (1,)
    big_m = math.lcm(*(j.m for j, _ in roots))
    poly = [CycInt.one(big_m)]
    for j, f in roots:
        jl = j.lift(big_m)
        width = len(poly) + f
        if trunc is not None:
            width = min(width, trunc + 1)
        new = [CycInt.zero(big_m)] * width
        for i, c in enumerate(poly):
            if i < width:
                new[i] = new[i] + c
            if i + f < width:
                new[i + f] = new[i + f] - jl * c
        poly = new
    out = tuple(c.rational_value() for c in poly)  # raises if not in Z
    if out[0] != 1:
        raise InvariantViolationError("local factor must have constant term 1")
    return out


def expand_powers_by_class(powers, trunc):
    """prod of n(t^f)^e over the ((n, f), e) items of powers, multiplying
    n(t^f) in e times over, through t^trunc if given."""
    out = [1]
    for (n, f), e in powers.items():
        for _ in range(e):
            width = len(out) + (len(n) - 1) * f
            if trunc is not None:
                width = min(width, trunc + 1)
            new = [0] * width
            for k, nk in enumerate(n):
                for i, a in enumerate(out[:max(0, width - k * f)]):
                    new[i + k * f] += nk * a
            out = new
    return out


def unit_sums_per_row(f, rows):
    """charsum.unit_sums with one _unit_sum per row on the folded pair
    table: no Galois class heads and no closed form."""
    big_m = math.lcm(*(m for m, _ in rows))
    table = dlog_pair_table(f, big_m)
    folded = {m: table.reshape(big_m // m, m, big_m // m, m).sum(axis=(0, 2))
              for m in {m for m, _ in rows}}
    return [_unit_sum(folded[m], f.q, m, exps) for m, exps in rows]


def jacobi_sums_per_alpha(f, alphas):
    """j_q(alpha) in Z[mu_m], m the conductor, one kernel row per alpha."""
    return unit_sums_per_row(f, [_row(a) for a in alphas])


def frobenius_orbits(v, p):
    """The orbits of alpha -> p * alpha on v's degree set, p prime to every
    exponent, each walked from its least tuple: the grid of numerators
    k * den/n_i, 0 < k < n_i, is read in lexicographic order, and a tuple
    of integer entry sum not yet seen starts an orbit."""
    den = math.lcm(*v.exponents)
    if math.gcd(p, den) != 1:
        raise ValidationError(f"{p} divides an exponent of {v.exponents}")
    seen, orbits = set(), []
    for nums in product(*(range(den // n, den, den // n) for n in v.exponents)):
        if sum(nums) % den or nums in seen:
            continue
        orbit = []
        while nums not in seen:
            seen.add(nums)
            orbit.append(AlphaTuple(nums, den))
            nums = tuple(x * p % den for x in nums)
        orbits.append(orbit)
    return orbits


def orbit_roots(v, p):
    """The reciprocal roots (J, f) of v's middle factor at the good prime p,
    one per Frobenius orbit: the jacobi_sums value of the orbit's first
    tuple over F_{p^f}, f the orbit length, times Weil's sign (-1)^n."""
    by_f = {}
    for orbit in frobenius_orbits(v, p):
        by_f.setdefault(len(orbit), []).append(orbit[0])
    sign = (-1) ** v.complex_dim
    return [(sign * j, f) for f, reps in by_f.items() for j in jacobi_sums((p, f), reps)]


def class_roots(classes):
    """The roots (c, f) of the Galois classes (J, f, n): n of them, each
    distinct conjugate c of J equally often."""
    out = []
    for j, f, n in classes:
        conjugates = {j.galois(l) for l in range(1, j.m + 1) if math.gcd(l, j.m) == 1}
        if n % len(conjugates):
            raise InvariantViolationError(f"{n} roots are not whole copies of "
                                          f"{len(conjugates)} conjugates")
        out += [(c, f) for c in conjugates for _ in range(n // len(conjugates))]
    return out


def predicted_count_direct(lf, r):
    """N_r = sum_{j=0..n} p^{jr} + (-1)^n sum_{roots, f | r} f * J^{r/f},
    the trace over class_roots summed in Z[mu_M] and required to be a
    rational integer."""
    if r < 1:
        raise ValidationError("power index must be positive")
    if lf.precision is not None and r > lf.precision:
        raise ValidationError(
            f"factor truncated at t^{lf.precision}; cannot predict N_{r}")
    n = lf.cohomology_degree
    total = sum(lf.p ** (j * r) for j in range(n + 1))
    relevant = [(j, f) for j, f in class_roots(lf.classes) if r % f == 0]
    if relevant:
        big_m = math.lcm(*(j.m for j, _ in relevant))
        acc = CycInt.zero(big_m)
        for j, f in relevant:
            acc = acc + f * (j ** (r // f)).lift(big_m)
        total += (-1) ** n * acc.rational_value()  # raises if not rational
    return total


# -- eta products and the Kronecker symbol ----------------------------------------


def eta_product(factors, cutoff):
    """b_1..b_cutoff of prod eta(k z)^e over the pairs (k, e), e >= 0: the
    integer q-series q^s prod_n (1 - q^(kn))^e, s = sum(k e) / 24 a positive
    integer, each (1 - q^(kn)) product expanded by Euler's pentagonal series
    sum_j (-1)^j q^(k j(3j-1)/2), j over Z, with no Jacobi sum or field."""
    shift, rem = divmod(sum(k * e for k, e in factors), 24)
    if rem or shift < 1:
        raise ValidationError(f"q^({shift} + {rem}/24) does not start a q-series in q^1")
    top = cutoff - shift
    series = np.zeros(top + 1, dtype=object)    # Python ints: exact
    series[0] = 1
    for k, e in factors:
        pentagonal, j = [(0, 1)], 1
        while k * j * (3 * j - 1) // 2 <= top:
            pentagonal += [(k * j * (3 * j + s) // 2, (-1) ** j) for s in (-1, 1)
                           if k * j * (3 * j + s) // 2 <= top]
            j += 1
        for _ in range(e):
            out = np.zeros(top + 1, dtype=object)
            for g, c in pentagonal:
                out[g:] += c * series[:top + 1 - g]
            series = out
    return [0] * (shift - 1) + series.tolist()


def kronecker(a, n):
    """The Kronecker symbol (a/n) for n >= 1: the Jacobi symbol at odd n,
    by reciprocity, times (a/2) = 0 (a even), 1 (a = +-1 mod 8) or -1
    (a = +-3 mod 8) for each factor 2 of n."""
    if n < 1:
        raise ValidationError(f"n={n} must be positive")
    sign = 1
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            sign = -sign
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


# -- the primes above a split p, labelled one by one ----------------------------


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


# -- FieldTable arithmetic on element indices ------------------------------------


def digits(f, x):
    """Base-p digit rows of element indices x, low degree first."""
    return np.asarray(x, dtype=np.int64)[..., None] // f.p ** np.arange(f.r) % f.p


def encode(f, d):
    """Element indices of digit rows d, each digit read mod p."""
    return d % f.p @ f.p ** np.arange(f.r)


def add(f, x, y):
    return int(encode(f, digits(f, x) + digits(f, y)))


def neg(f, x):
    return int(encode(f, -digits(f, x)))


def sub(f, x, y):
    return add(f, x, neg(f, y))


def mul(f, x, y):
    if x == 0 or y == 0:
        return 0
    return int(f.exp[(int(f.dlog[x]) + int(f.dlog[y])) % (f.q - 1)])


def inv(f, x):
    if x == 0:
        raise ValidationError("zero is not invertible")
    return int(f.exp[(-int(f.dlog[x])) % (f.q - 1)])


def power(f, x, n):
    if x == 0:
        if n == 0:
            return 1
        if n < 0:
            raise ValidationError("zero is not invertible")
        return 0
    return int(f.exp[(int(f.dlog[x]) * n) % (f.q - 1)])


def frobenius(f, x):
    return power(f, x, f.p)


def vadd(f, a, b):
    return encode(f, digits(f, a) + digits(f, b))


def vpow(f, a, n):
    a = np.asarray(a)
    out = f.exp[(f.dlog[np.maximum(a, 1)] * n) % (f.q - 1)]
    return np.where(a == 0, 0, out)


def multiplicative_order(f, x):
    """Order of the nonzero element index x, by repeated multiplication."""
    y, n = x, 1
    while y != 1:
        y, n = mul(f, y, x), n + 1
    return n


def smallest_generator_direct(f):
    """The smallest element index of order q-1, every index from 1 tried."""
    return next(x for x in range(1, f.q) if multiplicative_order(f, x) == f.q - 1)


def with_generator(f, k):
    """f's table on the generator g^k, k prime to q-1: dlog_{g^k} is
    k^-1 * dlog_g mod q-1, exp reads g^(k e), and zech[e] = dlog(1 - g^(k e))."""
    n = f.q - 1
    k_inv, e = pow(k, -1, n), np.arange(n) * k % n

    def reindex(logs):
        return np.where(logs >= 0, logs * k_inv % n, -1)

    return FieldTable(p=f.p, r=f.r, q=f.q, modulus=f.modulus, g=int(f.exp[k]),
                      dlog=reindex(f.dlog), exp=f.exp[e], zech=reindex(f.zech[e]))
