"""Point counts of diagonal hypersurfaces: oracle values and Weil's formula
against exhaustive enumeration."""

import pytest
from hypothesis import example, given, settings, strategies as st

from cyarith import (DiagonalVariety, count_affine, count_projective,
                     local_factor_middle, make_field, predicted_count)
from cyarith.charsum import check_good_prime, unit_sums
from cyarith.errors import BadReductionError, PrimalityError, ValidationError
from oracles import DIRECT_ENUM_BUDGET, add, count_affine_direct

# r > 1, p = 2, and primes dividing exponents in 2..6
ORACLE_FIELDS = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1), (13, 1), (5, 2)]


def test_variety_validation():
    with pytest.raises(ValidationError):
        DiagonalVariety((5, 5))            # too few coordinates
    with pytest.raises(ValidationError):
        DiagonalVariety((5, 5, 1, 5, 5))   # linear coordinate
    v = DiagonalVariety.fermat(5, 3)
    assert v.exponents == (5, 5, 5, 5, 5)
    assert (v.ambient_dim, v.complex_dim, v.degree) == (4, 3, 5)


def test_calabi_yau_condition():
    assert DiagonalVariety.fermat(5, 3).is_calabi_yau
    assert DiagonalVariety.fermat(3, 1).is_calabi_yau
    assert DiagonalVariety.fermat(4, 2).is_calabi_yau
    assert DiagonalVariety((2, 3, 6)).is_calabi_yau        # weighted cubic torus
    assert DiagonalVariety((2, 6, 6, 18, 18, 18)).is_calabi_yau
    assert not DiagonalVariety((4, 4, 4)).is_calabi_yau
    assert not DiagonalVariety.fermat(6, 3).is_calabi_yau


def test_good_primes(quintic):
    check_good_prime(quintic, 2)
    check_good_prime(quintic, 11)
    with pytest.raises(BadReductionError, match="5 divides an exponent of"):
        check_good_prime(quintic, 5)
    with pytest.raises(ValidationError, match="4 is not prime"):
        check_good_prime(quintic, 4)


def test_quintic_count_f11(quintic):
    assert count_projective(quintic, 11) == 1925
    assert count_affine(quintic, 11) == 1925 * 10 + 1


def test_cubic_counts():
    cubic = DiagonalVariety.fermat(3, 1)
    # supersingular at p = 2: N_r = 3, 9, 9, 9
    for r, expected in [(1, 3), (2, 9), (3, 9), (4, 9)]:
        assert count_projective(cubic, 2, r) == expected
    assert count_projective(cubic, 7) == 9
    assert count_projective(cubic, 13) == 9


def test_quartic_k3_counts():
    quartic = DiagonalVariety.fermat(4, 2)
    assert count_projective(quartic, 3) == 16
    assert count_projective(quartic, 5) == 0    # x^4 in {0,1} mod 5


def test_affine_projective_relation(quintic):
    # the affine cone minus the origin fibers over the projective set
    for p in (2, 3, 11):
        na = count_affine(quintic, p)
        np_ = count_projective(quintic, p)
        assert na - 1 == np_ * (p - 1)


def test_field_checked_without_a_table(cubic, monkeypatch):
    # (p, r) is refused as make_field refuses it, also where no tuple would
    # survive (gcd(3, 9 - 1) = 1); with no tuple, no table is built at any
    # size: gcd(3, 100151 - 1) = 1, beyond the prime-field table bound
    import cyarith.tables as tables
    monkeypatch.setattr(tables, "make_field", None)
    for call in (count_affine, count_projective):
        with pytest.raises(PrimalityError, match="^9 is not prime$"):
            call(cubic, 9)
        with pytest.raises(ValidationError, match="^extension degree must be positive$"):
            call(cubic, 2, 0)
    assert count_projective(cubic, 100151) == 100152


@settings(max_examples=60, deadline=None)
@given(field=st.sampled_from(ORACLE_FIELDS),
       exps=st.lists(st.integers(2, 6), min_size=3, max_size=5))
@example(field=(3, 2), exps=[3, 6, 2])
@example(field=(2, 3), exps=[2, 4, 6, 3])
def test_weil_formula_matches_enumeration(field, exps):
    f = make_field(*field)
    assert f.q ** len(exps) <= DIRECT_ENUM_BUDGET
    v = DiagonalVariety(tuple(exps))
    assert count_affine(v, *field) == count_affine_direct(v, f)


def test_counts_past_the_old_convolution_cap(quintic, cubic):
    # q^2 > 2^26 at both fields; the count must equal the zeta prediction
    n2 = count_projective(quintic, 101, 2)
    assert n2 == predicted_count(local_factor_middle(quintic, 101), 2) == 1061585385175
    n1 = count_projective(cubic, 8209)
    assert n1 == predicted_count(local_factor_middle(cubic, 8209), 1) == 8127


@pytest.mark.parametrize("p,r", [(3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_hyperplane_tuple_closed_form(p, r, k):
    # with every character trivial, (q-1) times the Jacobi kernel's unit sum
    # counts the unit k-tuples on the hyperplane sum = 0
    from itertools import product
    f = make_field(p, r)
    brute = sum(1 for t in product(range(1, f.q), repeat=k)
                if _sum_indices(f, t) == 0)
    [trivial] = unit_sums((p, r), [(1, [0] * (k - 1))])
    assert brute == ((f.q - 1) ** k + (-1) ** k * (f.q - 1)) // f.q
    assert brute == (f.q - 1) * trivial.rational_value()


def _sum_indices(f, t):
    acc = 0
    for x in t:
        acc = add(f, acc, x)
    return acc


def test_bad_reduction_raises(quintic):
    # a count holds at a bad prime; a local factor is refused there
    assert count_projective(quintic, 5) == 1 + 5 + 5**2 + 5**3
    with pytest.raises(BadReductionError):
        local_factor_middle(quintic, 5)
