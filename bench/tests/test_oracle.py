"""The oracle against brute-force enumeration and known values."""

import cmath
import math
from itertools import product

import numpy as np
import pytest

import oracle


@pytest.mark.parametrize("p,r", [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3), (7, 2)])
def test_field_is_a_field(p, r):
    f = oracle.Field(p, r)
    q = f.q
    units = np.arange(1, q)
    assert (f.power_table(q - 1)[units] == 1).all()      # Lagrange on F_q^*
    assert (f.power_table(q) == np.arange(q)).all()       # Frobenius fixes F_q
    # some element has order exactly q - 1, so F_q^* is cyclic of that order
    orders = {d for d in range(1, q - 1) if (q - 1) % d == 0}
    assert any(all(f.power_table(d)[x] != 1 for d in orders) for x in units)


def _brute_over_field(exponents, p, r):
    """Projective count over F_{p^r} by visiting every affine tuple."""
    f = oracle.Field(p, r)
    pows = [f.digits[f.power_table(n)] for n in exponents]
    zeros = sum(1 for xs in product(range(f.q), repeat=len(exponents))
                if not (sum(pw[x] for pw, x in zip(pows, xs)) % p).any())
    return (zeros - 1) // (f.q - 1)


@pytest.mark.parametrize("exps,p", [((3, 3, 3), 2), ((3, 3, 3), 5), ((3, 3, 3), 7),
                                    ((3, 3, 3), 13), ((2, 2, 2, 2), 5), ((3, 3, 3, 3), 7),
                                    ((5, 5, 5, 5, 5), 11), ((5, 5, 5, 5, 5), 2)])
def test_count_matches_enumeration_over_prime_fields(exps, p):
    assert oracle.projective_count(exps, p) == oracle.brute_projective_count(exps, p)


@pytest.mark.parametrize("exps,p,r", [((3, 3, 3), 2, 2), ((3, 3, 3), 5, 2),
                                      ((3, 3, 3), 2, 3), ((5, 5, 5, 5, 5), 2, 2),
                                      ((2, 2, 2), 3, 2)])
def test_count_matches_enumeration_over_extension_fields(exps, p, r):
    assert oracle.projective_count(exps, p, r) == _brute_over_field(exps, p, r)


def test_known_counts():
    # the Fermat cubic is maximal over F_4 (1 + 4 + 2*2 = 9 points); the
    # quintic threefold has 1925 points over F_11
    assert oracle.projective_count((3, 3, 3), 2, 2) == 9
    assert oracle.projective_count((5,) * 5, 11) == 1925


def _brute_jacobi(p, m, exps, t):
    """J(chi^a_1..chi^a_r) with u_1 + ... + u_r = 1, chi(g) = zeta_m^t."""
    g = oracle.primitive_root(p)
    dlog = {pow(g, k, p): k for k in range(p - 1)}
    step = (p - 1) // m

    def chi(a, u):
        return cmath.exp(2j * math.pi * (a * t * dlog[u] * step % (p - 1)) / (p - 1))

    total = 0j
    for us in product(range(1, p), repeat=len(exps) - 1):
        last = (1 - sum(us)) % p
        if last:
            total += math.prod(chi(a, u) for a, u in zip(exps, (*us, last)))
    return total


@pytest.mark.parametrize("exps", [(1, 1, 1, 1), (1, 2), (1, 4), (2, 3, 4), (1, 1, 3)])
def test_gauss_sum_jacobi_matches_enumeration(exps):
    p, m = 11, 5
    got = oracle.jacobi_from_gauss(p, m, exps)
    want = [_brute_jacobi(p, m, exps, t) for t in (1, 2, 3, 4)]
    assert all(abs(a - b) < 1e-8 for a, b in zip(got, want))


def test_hecke_a_p_known_values():
    a = oracle.hecke_coefficients(5, (1, 1, 1, 1), 40)
    assert a[0] == 1 and a[10] == 89 and a[30] == 409
    assert all(a[n - 1] == 0 for n in (2, 3, 5, 7, 13, 22, 33))


def test_newton_counts_from_roots():
    # P(t) = (1 - 2t)(1 - 3t): power sums 5, 13, 35; curve over F_7 (dim 1)
    got = oracle.newton_counts((1, -5, 6), 7, 1, 3)
    assert got == {1: 1 + 7 - 5, 2: 1 + 49 - 13, 3: 1 + 343 - 35}
