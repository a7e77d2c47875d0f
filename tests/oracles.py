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
`predicted_count_direct` takes N_r from the orbit roots' powers in Z[mu_M]
instead of Newton's identities on the integer factor.  The scalar and
vectorised field operations at the end read the field's exp/dlog tables;
for addition they derive the base-p digit rows from the element index
themselves, so nothing here shares the kernel's Zech table.
`smallest_generator_direct` finds make_field's default generator by taking
the order of every element index in turn with `mul`, and `with_generator`
re-indexes a table's logarithms to another generator.
"""

import math
from itertools import product

import numpy as np

from cyarith.charsum import _row, _unit_sum, dlog_pair_table
from cyarith.cyclo import CycInt
from cyarith.errors import CapacityError, InvariantViolationError, ValidationError
from cyarith.ffield import FieldTable

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


def expand_roots_direct(orbits, trunc):
    """prod (1 - J t^f) multiplied out one CycInt coefficient at a time in
    Z[mu_M], M the lcm of the conductors, through t^trunc if given."""
    if not orbits:
        return (1,)
    big_m = math.lcm(*(j.m for j, _ in orbits))
    poly = [CycInt.one(big_m)]
    for j, f in orbits:
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


def predicted_count_direct(lf, r):
    """N_r = sum_{j=0..n} p^{jr} + (-1)^n sum_{orbits, f | r} f * J^{r/f},
    the orbit trace summed in Z[mu_M] and required to be a rational integer."""
    if r < 1:
        raise ValidationError("power index must be positive")
    if lf.precision is not None and r > lf.precision:
        raise ValidationError(
            f"factor truncated at t^{lf.precision}; cannot predict N_{r}")
    n = lf.cohomology_degree
    total = sum(lf.p ** (j * r) for j in range(n + 1))
    relevant = [(j, f) for j, f in lf.orbits if r % f == 0]
    if relevant:
        big_m = math.lcm(*(j.m for j, _ in relevant))
        acc = CycInt.zero(big_m)
        for j, f in relevant:
            acc = acc + f * (j ** (r // f)).lift(big_m)
        total += (-1) ** n * acc.rational_value()  # raises if not rational
    return total


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
