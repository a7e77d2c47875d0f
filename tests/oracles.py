"""Brute-force references that only the tests use.

`expand_roots_direct` is the per-coefficient expansion that
`zeta.expand_roots` replaced, `jacobi_sums_per_alpha` runs the kernel once
per tuple instead of once per Galois class, and `predicted_count_direct`
takes N_r from the orbit roots' powers in Z[mu_M] instead of Newton's
identities on the integer factor.  The `FieldTable` scalar operations below
read the field's own exp/dlog and digit tables one element at a time.
"""

import math

from cyarith.charsum import _char_multipliers, unit_sums
from cyarith.cyclo import CycInt
from cyarith.errors import InvariantViolationError, ValidationError


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


def jacobi_sums_per_alpha(f, alphas):
    """j_q(alpha) in Z[mu_m], m the conductor, one kernel row per alpha."""
    return unit_sums(f, [(a.conductor, _char_multipliers(a, a.conductor)[:-1])
                         for a in alphas])


def predicted_count_direct(z, r):
    """N_r = sum_{j=0..n} p^{jr} + (-1)^n sum_{orbits, f | r} f * J^{r/f},
    the orbit trace summed in Z[mu_M] and required to be a rational integer."""
    if r < 1:
        raise ValidationError("power index must be positive")
    lf = z.middle
    if lf.precision is not None and r > lf.precision:
        raise ValidationError(
            f"factor truncated at t^{lf.precision}; cannot predict N_{r}")
    n = z.variety.complex_dim
    total = sum(z.p ** (j * r) for j in range(n + 1))
    relevant = [(j, f) for j, f in lf.orbits if r % f == 0]
    if relevant:
        big_m = math.lcm(*(j.m for j, _ in relevant))
        acc = CycInt.zero(big_m)
        for j, f in relevant:
            acc = acc + f * (j ** (r // f)).lift(big_m)
        total += (-1) ** n * acc.rational_value()  # raises if not rational
    return total


# -- scalar FieldTable arithmetic on element indices ----------------------------


def add(f, x, y):
    return int(((f.digits[x] + f.digits[y]) % f.p) @ f.ppow)


def neg(f, x):
    return int(((f.p - f.digits[x]) % f.p) @ f.ppow)


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
    return ((f.digits[a] + f.digits[b]) % f.p) @ f.ppow
