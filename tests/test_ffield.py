"""Finite field tables: primality, generators, extension arithmetic."""

import numpy as np
import pytest
import sympy

from cyarith import dlog, is_prime, make_field
from cyarith.errors import CapacityError, PrimalityError, ValidationError
from cyarith.ffield import make_extension_field, make_prime_field


def test_is_prime_agrees_with_sympy():
    for n in range(-3, 2000):
        assert is_prime(n) == sympy.isprime(n), n


def test_prime_field_tables(f11):
    assert (f11.p, f11.r, f11.q) == (11, 1, 11)
    assert f11.g == 2                      # smallest generator of F_11^*
    # exp/dlog are mutually inverse on the unit group
    for x in range(1, 11):
        assert f11.exp[f11.dlog[x]] == x
    assert f11.dlog[0] == -1
    assert sorted(int(v) for v in f11.exp) == list(range(1, 11))


def test_dlog_helper(f11):
    assert dlog(f11, 1) == 0
    assert dlog(f11, 2) == 1
    with pytest.raises(ValidationError):
        dlog(f11, 0)


@pytest.mark.parametrize("p,r,modulus", [
    (2, 2, (1, 1, 1)),          # x^2 + x + 1
    (2, 4, (1, 0, 0, 1, 1)),    # x^4 + x^3 + 1, first in the search order
    (3, 2, (1, 0, 1)),          # x^2 + 1
])
def test_extension_modulus_is_smallest_irreducible(p, r, modulus):
    f = make_field(p, r)
    assert f.q == p ** r
    assert f.modulus == modulus


@pytest.mark.parametrize("p,r", [(2, 4), (3, 3), (5, 2), (7, 1)])
def test_field_axioms_on_all_elements(p, r):
    f = make_field(p, r)
    xs = range(f.q)
    for x in xs:
        assert f.add(x, 0) == x
        assert f.add(x, f.neg(x)) == 0
        assert f.mul(x, 1) == x
        if x:
            assert f.mul(x, f.inv(x)) == 1
        assert f.pow(x, f.q) == x          # Frobenius iterated r times fixes F_q
    # distributivity on a grid
    for x in range(0, f.q, 3):
        for y in range(0, f.q, 5):
            for z in (1, 2, f.q - 1):
                lhs = f.mul(x, f.add(y, z))
                assert lhs == f.add(f.mul(x, y), f.mul(x, z))


def test_generator_has_full_order():
    for p, r in [(2, 4), (3, 2), (13, 1)]:
        f = make_field(p, r)
        seen = {1}
        x = 1
        for _ in range(f.q - 2):
            x = f.mul(x, int(f.exp[1]))
            assert x not in seen
            seen.add(x)


def test_frobenius_is_additive():
    f = make_field(3, 3)
    for x in range(0, f.q, 2):
        for y in range(0, f.q, 5):
            assert f.frobenius(f.add(x, y)) == f.add(f.frobenius(x), f.frobenius(y))


def test_vectorised_ops_match_scalar():
    f = make_field(2, 4)
    a = np.arange(f.q)
    b = np.roll(a, 3)
    va = f.vadd(a, b)
    for i in range(f.q):
        assert va[i] == f.add(int(a[i]), int(b[i]))
    vp = f.vpow(a, 3)
    for i in range(f.q):
        assert vp[i] == f.pow(int(a[i]), 3)


def test_alternate_generator_field(f11):
    g7 = make_prime_field(11, 7)
    assert g7.g == 7
    # same field, different log tables; multiplication must agree
    for x in range(11):
        for y in range(11):
            assert f11.mul(x, y) == g7.mul(x, y)
    with pytest.raises(ValidationError):
        make_prime_field(11, 3)             # order 5, not a generator


def test_validation_and_capacity():
    with pytest.raises(PrimalityError):
        make_field(10)
    with pytest.raises(PrimalityError):
        make_field(1)
    with pytest.raises(CapacityError):
        make_field(2, 21)                  # 2^21 exceeds the table bound
    with pytest.raises(CapacityError):
        make_field(200_003)
