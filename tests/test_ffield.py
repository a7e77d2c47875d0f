"""Finite field tables: primality, generators, extension arithmetic."""

import hashlib
from itertools import product

import numpy as np
import pytest
import sympy

from cyarith import dlog, is_prime, make_field
from cyarith.ffield import field_generator, primitive_root
from cyarith.errors import CapacityError, PrimalityError, ValidationError
from oracles import (add, frobenius, inv, mul, neg, power, smallest_generator_direct, sub,
                     vadd, vpow)


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
        assert add(f, x, 0) == x
        assert add(f, x, neg(f, x)) == 0
        assert sub(f, x, x) == 0
        assert mul(f, x, 1) == x
        if x:
            assert mul(f, x, inv(f, x)) == 1
        assert power(f, x, f.q) == x          # Frobenius iterated r times fixes F_q
    # distributivity on a grid
    for x in range(0, f.q, 3):
        for y in range(0, f.q, 5):
            for z in (1, 2, f.q - 1):
                lhs = mul(f, x, add(f, y, z))
                assert lhs == add(f, mul(f, x, y), mul(f, x, z))


SMALL_FIELDS = [(p, r) for p in range(2, 2049) if is_prime(p)
                for r in range(1, 12) if p**r <= 2048]


def _first_irreducible_sympy(p, r):
    """The first monic degree-r polynomial, coefficient vectors compared low
    degree first, that sympy finds irreducible over F_p."""
    x = sympy.symbols("x")
    for low in product(range(p), repeat=r):
        cand = low + (1,)
        if sympy.Poly(list(reversed(cand)), x, modulus=p).is_irreducible:
            return cand


def test_default_generator_and_modulus_match_brute_force():
    # every field with q <= 2048, p = 2 included: g is the smallest index of
    # order q-1 with the constants scanned too, and the modulus is the first
    # irreducible in lexicographic order
    assert (2, 11) in SMALL_FIELDS and len(SMALL_FIELDS) > 300
    for p, r in SMALL_FIELDS:
        f = make_field(p, r)
        assert f.g == smallest_generator_direct(f), (p, r)
        assert f.modulus == _first_irreducible_sympy(p, r), (p, r)


def test_primitive_root_is_smallest():
    # the pow-based search that labels split primes without a table, and
    # make_field's generator at r = 1
    for p in [n for n in range(2, 5000) if is_prime(n)] + [100151, 999983]:
        assert primitive_root(p) == sympy.primitive_root(p), p
    assert primitive_root(2) == make_field(2).g == 1


def test_generator_has_full_order():
    for p, r in [(2, 4), (3, 2), (13, 1)]:
        f = make_field(p, r)
        seen = {1}
        x = 1
        for _ in range(f.q - 2):
            x = mul(f, x, int(f.exp[1]))
            assert x not in seen
            seen.add(x)


def test_frobenius_is_additive():
    f = make_field(3, 3)
    for x in range(0, f.q, 2):
        for y in range(0, f.q, 5):
            assert frobenius(f, add(f, x, y)) == add(f, frobenius(f, x), frobenius(f, y))


def test_vectorised_ops_match_scalar():
    f = make_field(2, 4)
    a = np.arange(f.q)
    b = np.roll(a, 3)
    va = vadd(f, a, b)
    for i in range(f.q):
        assert va[i] == add(f, int(a[i]), int(b[i]))
    vp = vpow(f, a, 3)
    for i in range(f.q):
        assert vp[i] == power(f, int(a[i]), 3)


# (g, modulus, sha256 of exp, sha256 of dlog, sha256 of zech).  The exp and
# dlog hashes are those of the per-element constructors this module had
# before the doubling construction, the zech hashes those of the digit-column
# Zech pass before the table of 1 - x; every Jacobi sum, golden output and
# cache entry is read off these tables.
PINNED_TABLES = {
    (2, 1): (1, (0, 1), "7c9fa136d4413fa6173637e883b6998d32e1d675f88cddff9dcbcf331820f4b8",
             "60c69a3e87bf5c4f1e546bec45f262690bcf5494c4ecac2616bf2f731afa152a",
             "12a3ae445661ce5dee78d0650d33362dec29c4f82af05e7e57fb595bbbacf0ca"),
    (2, 16): (6, (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 1),
              "3cad62fe612b8c789e68fbb3944f2e85720bae40c75b5d0054c24349dbc1b92c",
              "6a9ee56164865113982dbaa18c36dba4484ec2ea0c5bcd0e4f387f813ce1a979",
              "f3c4b042d7ab6fb2577667b6cdaccefdb4769272990363e098ebb6298f4827ff"),
    (3, 4): (10, (1, 0, 1, 1, 1), "b7c78cc73e4386ff0dfbc584bd7186706b4702d4859ce3ab4ee5ad4dafa26bb9",
             "c2f8aebcf7b398be3f0a5b161df6fffc15023ce20fafd2f5df9d826b29b4374e",
             "1fd2fb1fb548fd5b3da134cf937056aadf293cbc37808e2c45f867f7bb5d24fe"),
    (5, 2): (7, (1, 1, 1), "46f2e3d1a1965949c9c66eebd0dfde08ce9502d24263535c4678229e77b7e133",
             "99b3f256b21bf000d6c983537069025f5b782df0d715dec8cb0c7852f68fcb67",
             "a3ffb68ba2e7aa0c8ea617e9335e44b7e7962e32c111050c76008ae86172cf30"),
    (7, 1): (3, (0, 1), "b731ea0a2c721d83db255a5507575d6a42ccde137a2971a3c9e84dc1c88eebed",
             "f2e1311b600fee028d2d3db8cd5bc56467294c8a139f43f6c1b99b7aacacfc69",
             "e0b828ad9628b5d2a2cec41785212e54e2e3e9c3b6f548c78b507afc21c2c95b"),
    (17, 4): (21, (1, 0, 0, 3, 1), "11c52a3968e3b3cd62a7f322b7fb53e66ded1f28e80f7ce942e397bebf6f5d2e",
              "723e5f31fa126014083d226e9133f02e8a175a04b137040d29418fad277b3713",
              "0c248ee3943c0bf34cd525636bfaa651d2b638006196c9503a13c5ccdab695c3"),
    (23, 4): (24, (1, 0, 0, 4, 1), "cd1b13078970ed354f99b13c2d72e127db0c5fcf2a42990f307685302d3622b4",
              "72e76db4c30ee3465fd2158a76814b63f862ed07b972ef08b7c43db44d9d2670",
              "c0aef271d454d4e91c0b8f94f796d36b8c55f374d70767c8bb5918dd284c0bb6"),
    (71, 2): (79, (1, 0, 1), "a11833c4ecb8635d06d1ec74299cc1aebf0c43831bd747c86b1dbf8801870bc9",
              "5d3f551165fa05d017ae2ec39fee2a229d75813c099e16fe993925b5b1e2eb08",
              "0a8add40c9ed14df137d1875b1f2e384a36e0efd6d4f754bafbbf5b1bd8d2302"),
    (1009, 2): (1019, (1, 9, 1), "2ebdb222d0174856529509dcff8d22c4ebe345e4ca15d417a2a543a89aaf1e9b",
                "480a50110d010df1d91f382e3213324fdf5804ca75ad70063fb12094ec3b4edb",
                "f4bb5d59cc6fc85e26b0a99f1892d7b472c66dde28c91ea28e06a601cda2e4cf"),
    (99991, 1): (6, (0, 1), "8edb7634faa9f2962584d9856ea025869a71dc2053d59a08233bf1e4e42e4883",
                 "295583782a528cde86ccb785e5e94f6dc69701c03c02b6ee845ca0d443889d3d",
                 "e85cb6d88ba39bec14f9c6544e4e9bbfa4540f457f4e13bc0a57755b218f0b44"),
}


@pytest.mark.parametrize("p,r", sorted(PINNED_TABLES))
def test_field_tables_pinned(p, r):
    f = make_field(p, r)
    assert f.exp.dtype == f.dlog.dtype == f.zech.dtype == np.int64
    assert (f.g, f.modulus, *(hashlib.sha256(a.tobytes()).hexdigest()
                              for a in (f.exp, f.dlog, f.zech))) == PINNED_TABLES[p, r]


@pytest.mark.parametrize("p,r", sorted({(2, 1), (2, 4)} | {
    (p, r) for p, r in PINNED_TABLES if p ** r <= 5041}))
def test_zech_matches_digit_oracle(p, r):
    f = make_field(p, r)
    assert f.zech.shape == (f.q - 1,) and f.zech[0] == -1
    for e in range(f.q - 1):
        assert f.zech[e] == f.dlog[sub(f, 1, int(f.exp[e]))]


def test_validation_and_capacity():
    with pytest.raises(PrimalityError):
        make_field(10)
    with pytest.raises(PrimalityError):
        make_field(1)
    with pytest.raises(CapacityError):
        make_field(2, 21)                  # 2^21 exceeds the table bound
    with pytest.raises(CapacityError, match=r"^p=1048583 needs a table of F_1048583 "
                                            r"\(degree 1\), beyond the table bound 1048576$"):
        make_field(1048583)                # the first prime above 2^20


def test_prime_field_past_ten_to_the_fifth():
    # one bound, q <= 2^20, at every degree: F_p for p > 10^5 is tabulated
    f = make_field(100003)
    assert f.q == 100003 and f.g == primitive_root(100003)
    assert f.exp[f.dlog[12345]] == 12345


def test_field_generator_past_the_table_bound():
    # make_field's modulus and generator, found with no table: at
    # F_{100019^3} the modulus is the first irreducible that sympy finds,
    # and g = x + 2 has order q - 1.  A cyclotomic factor of q - 1 beyond
    # FACTOR_BOUND is refused, not trial-divided
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_pow_mod

    p, r = 100019, 3
    q = p**r
    modulus, g = field_generator(p, r)
    x = sympy.symbols("x")
    first = next(c for c in ((1, 0, c2, 1) for c2 in range(p))
                 if sympy.Poly(list(reversed(c)), x, modulus=p).is_irreducible)
    assert modulus == first == (1, 0, 8, 1) and g == 2 + p
    assert all(gf_pow_mod([1, 2], (q - 1) // l, list(reversed(modulus)), p, ZZ) != [1]
               for l in sympy.factorint(q - 1))
    f = make_field(5, 4)
    assert field_generator(5, 4) == (f.modulus, f.g)
    with pytest.raises(CapacityError, match=r"Phi_5\(100151\), beyond the factoring bound"):
        field_generator(100151, 5)


def test_field_generator_refuses_before_the_irreducible_walk(monkeypatch):
    # a cyclotomic factor beyond FACTOR_BOUND is refused before the walk
    # over degree-r candidates, which at (11, 45) alone takes seconds
    import cyarith.ffield as ffield

    def walk(p, r):
        raise AssertionError(f"the irreducible walk ran at the refused ({p}, {r})")

    monkeypatch.setattr(ffield, "_smallest_irreducible", walk)
    for p, r in ((11, 45), (100151, 5)):
        with pytest.raises(CapacityError, match=rf"Phi_{r}\({p}\), beyond the factoring bound"):
            field_generator(p, r)
