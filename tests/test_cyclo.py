"""Exact cyclotomic integer arithmetic against sympy and hypothesis."""

import math

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from cyarith import (CycInt, cyclotomic_polynomial, cyclotomic_unit,
                     delta_determinant, euler_phi, hecke_weight,
                     regulator_matrix, s_element)
from cyarith.cyclo import _euclid_step, cyclotomic_gcd
from cyarith.errors import InvariantViolationError, ValidationError

CONDUCTORS = [3, 4, 5, 8, 12]


def test_cyclotomic_polynomial_vs_sympy():
    x = sympy.symbols("x")
    for m in range(1, 31):
        ours = cyclotomic_polynomial(m)
        theirs = sympy.Poly(sympy.cyclotomic_poly(m, x), x).all_coeffs()[::-1]
        assert list(ours) == [int(c) for c in theirs], m


def test_euler_phi():
    for m in range(1, 200):
        assert euler_phi(m) == sympy.totient(m)


def _elements(m):
    phi = euler_phi(m)
    coeff = st.integers(min_value=-50, max_value=50)
    return st.tuples(*([coeff] * phi)).map(lambda t: CycInt(m, t))


@pytest.mark.parametrize("m", CONDUCTORS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_ring_axioms(m, data):
    x = data.draw(_elements(m))
    y = data.draw(_elements(m))
    z = data.draw(_elements(m))
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + CycInt.zero(m) == x
    assert x * CycInt.one(m) == x
    assert x - x == CycInt.zero(m)


@pytest.mark.parametrize("m", CONDUCTORS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_norm_multiplicative(m, data):
    x = data.draw(_elements(m))
    y = data.draw(_elements(m))
    assert (x * y).norm() == x.norm() * y.norm()


@pytest.mark.parametrize("m", CONDUCTORS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_embedding_is_a_ring_map(m, data):
    x = data.draw(_elements(m))
    y = data.draw(_elements(m))
    scale = max(1.0, abs(x.embed()), abs(y.embed()))
    assert abs((x * y).embed() - x.embed() * y.embed()) < 1e-7 * scale * scale
    assert abs((x + y).embed() - (x.embed() + y.embed())) < 1e-9 * scale


def test_roots_of_unity():
    for m in CONDUCTORS:
        xi = CycInt.root(m)
        acc = CycInt.one(m)
        for _ in range(m):
            acc = acc * xi
        assert acc == CycInt.one(m)
    # minimal polynomial: sum over a full set of primitive power exponents
    assert sum((CycInt.root(5, e) for e in range(1, 5)),
               CycInt.one(5)) == CycInt.zero(5)


def test_conjugation():
    for m in CONDUCTORS:
        xi = CycInt.root(m, 1)
        assert xi.conj() == CycInt.root(m, m - 1)
        x = CycInt.from_exponent_counts(m, [3, -2, 1])
        z = x.conj().embed()
        w = x.embed()
        assert abs(z - w.conjugate()) < 1e-9


def test_from_exponent_counts_dict_and_list_agree():
    for m in CONDUCTORS:
        counts = {0: 3, 1: -2, (m - 1): 7}
        as_list = [0] * m
        for e, c in counts.items():
            as_list[e] = c
        assert CycInt.from_exponent_counts(m, counts) == \
            CycInt.from_exponent_counts(m, as_list)


def test_lift_preserves_embedding():
    x = CycInt.from_exponent_counts(5, [1, 2, 0, -1, 3])
    y = x.lift(20)
    assert y.m == 20
    assert abs(x.embed() - y.embed()) < 1e-9


def test_rational_value():
    assert CycInt.from_int(5, -17).rational_value() == -17
    with pytest.raises(InvariantViolationError):
        CycInt.root(5).rational_value()


def test_cyclotomic_unit_golden_ratio():
    exact, numeric = cyclotomic_unit(5, 2)
    assert abs(numeric - (1 + math.sqrt(5)) / 2) < 1e-12
    assert abs(abs(exact.embed()) - numeric) < 1e-12
    with pytest.raises(ValidationError):
        cyclotomic_unit(8, 2)              # gcd(2, 8) > 1, not a unit index


def test_s_element_quintic_weight():
    elem = s_element((1, 1, 1, 1), 5)
    assert elem.as_dict() == {1: 0, 2: 2, 3: 1, 4: 3}
    assert hecke_weight((1, 1, 1, 1), 5) == 3
    # weight is the motivic one: r - 1 when the entry sum is a nonmultiple of m
    assert hecke_weight((1, 1), 5) == 1
    assert hecke_weight((1, 4), 5) == 2    # sum divisible by m bumps the weight


def test_delta_determinant_positive():
    for p in (5, 7, 11, 13):
        assert delta_determinant(p) > 0
    with pytest.raises(ValidationError):
        delta_determinant(4)


def test_regulator_rows_of_units_sum_to_zero():
    # log-embedding rows of genuine units are orthogonal to (1,...,1)
    for m in (5, 8, 12):
        units = [cyclotomic_unit(m, j)[0] for j in range(2, m) if math.gcd(j, m) == 1]
        mat = regulator_matrix(units, m)
        assert np.abs(mat.sum(axis=1)).max() < 1e-10


@pytest.mark.parametrize("m", [3, 5, 7])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_divmod_reduces_the_norm(m, data):
    a = data.draw(_elements(m))
    b = data.draw(_elements(m).filter(bool))
    co = b._cofactor()
    q, r, co_r, r_norm = _euclid_step(a, b, co, (b * co).rational_value())
    assert q * b + r == a
    assert abs(r_norm) < abs(b.norm()) and r_norm == r.norm()
    assert r * co_r == CycInt.from_int(m, r_norm)


@pytest.mark.parametrize("m", [3, 5, 7])
def test_gcd_generates_the_split_primes(m):
    # (p, xi - c) is a prime of norm p for every c of order m mod a split p
    xi = CycInt.root(m)
    for p in [n for n in range(m + 1, 400) if n % m == 1 and sympy.isprime(n)]:
        for c in [c for c in range(2, p) if pow(c, m, p) == 1]:
            pi = cyclotomic_gcd(CycInt.from_int(m, p), xi - c)
            assert abs(pi.norm()) == p
            assert sum(x * c**k for k, x in enumerate(pi.coeffs)) % p == 0
    # an exact common factor comes out, up to a unit
    d = CycInt(m, (3, -1) + (0,) * (euler_phi(m) - 2))
    g = cyclotomic_gcd(d * (xi + 5), d * (xi * xi - 7))
    assert abs(g.norm()) == abs(d.norm() * cyclotomic_gcd(xi + 5, xi * xi - 7).norm())
