"""L-series against eta products: oracles that share no Jacobi sum, field
or Stickelberger element with cyarith.

Each diagonal curve below is a CM elliptic curve whose weight-2 newform is
an eta product, up to a quadratic twist; the K3 quartic's transcendental
part is the weight-3 form eta(4z)^6, and its 19 primitive algebraic classes
add p * c(p), c(p) the trace of Frobenius on their Tate twist (Martin-Ono,
Proc. AMS 125, 1997; Weil, Trans. AMS 73, 1952)."""

import math

import pytest
from sympy.functions.combinatorial.numbers import kronecker_symbol

from cyarith import DiagonalVariety, HeckeCharacter
from cyarith.ffield import is_prime
from cyarith.hecke import dirichlet_coefficients
from oracles import eta_product, kronecker


def test_eta_product_expands_delta():
    # eta(z)^24 is Ramanujan's Delta
    tau = [1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643, -115920]
    assert eta_product([(1, 24)], 10) == tau
    assert eta_product([(3, 2), (9, 2)], 10) == [1, 0, 0, -2, 0, 0, -1, 0, 0, 0]


def test_kronecker_symbol():
    for a in range(-20, 21):
        for n in range(1, 60):
            assert kronecker(a, n) == kronecker_symbol(a, n), (a, n)
    assert [kronecker(8, n) for n in (1, 3, 5, 7, 9, 2)] == [1, -1, -1, 1, 1, 0]
    assert [kronecker(-4, n) for n in (1, 3, 5, 7, 2)] == [1, -1, 1, -1, 0]
    assert [kronecker(5, n) for n in (2, 4, 6)] == [-1, 1, 1]


# exponents, eta factors (k, e), twist a in (a/n), the primes n must avoid
CURVES = {
    "3,3,3": ((3, 3, 3), [(3, 2), (9, 2)], 1, 3),
    "2,4,4": ((2, 4, 4), [(4, 2), (8, 2)], 8, 2),
    "2,3,6": ((2, 3, 6), [(6, 4)], -4, 6),
}


@pytest.mark.parametrize("name", CURVES)
def test_curve_lseries_is_a_twisted_eta_product(name):
    exps, factors, twist, bad = CURVES[name]
    coeffs = dirichlet_coefficients(DiagonalVariety(exps), 5000)
    b = eta_product(factors, 5000)
    wrong = [n for n in range(1, 5001)
             if math.gcd(n, bad) == 1 and coeffs.a(n) != kronecker(twist, n) * b[n - 1]]
    assert wrong == []


def test_k3_quartic_ap_is_eta_4z_6_plus_algebraic_trace():
    # the 19 primitive algebraic classes of x^4 + y^4 + z^4 + w^4 contribute
    # p * c(p): all 19 are defined over F_p at p = 1 mod 8
    coeffs = dirichlet_coefficients(DiagonalVariety((4, 4, 4, 4)), 5000)
    b = eta_product([(4, 6)], 5000)

    def c(p):
        return 19 if p % 8 == 1 else -5 if p % 8 == 5 else 1

    wrong = [p for p in range(3, 5001)
             if is_prime(p) and coeffs.a(p) != b[p - 1] + p * c(p)]
    assert wrong == []


@pytest.mark.parametrize("m, a, factors", [(3, (1, 1), [(3, 2), (9, 2)]),
                                           (4, (1, 1, 1), [(4, 6)])],
                         ids=["3;1,1", "4;1,1,1"])
def test_hecke_character_is_an_eta_product(m, a, factors):
    coeffs = dirichlet_coefficients(HeckeCharacter(m, a), 3000)
    b = eta_product(factors, 3000)
    skipped = coeffs.bad_primes + coeffs.omitted_primes
    checked = [n for n in range(1, 3001) if all(n % p for p in skipped)]
    assert len(checked) > 300
    assert [n for n in checked if coeffs.a(n) != b[n - 1]] == []
