"""Point counts of diagonal hypersurfaces: oracle values and method agreement."""

import pytest

from cyarith import DiagonalVariety, count_affine, count_projective, make_field
from cyarith.charsum import unit_sums
from cyarith.errors import BadReductionError, ValidationError


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
    assert quintic.is_good_prime(2)
    assert quintic.is_good_prime(11)
    assert not quintic.is_good_prime(5)
    assert not quintic.is_good_prime(4)


def test_quintic_count_f11(quintic, f11):
    assert count_projective(quintic, f11) == 1925
    assert count_affine(quintic, f11) == 1925 * 10 + 1


def test_cubic_counts():
    cubic = DiagonalVariety.fermat(3, 1)
    # supersingular at p = 2: N_r = 3, 9, 9, 9
    for r, expected in [(1, 3), (2, 9), (3, 9), (4, 9)]:
        assert count_projective(cubic, make_field(2, r)) == expected
    assert count_projective(cubic, make_field(7)) == 9
    assert count_projective(cubic, make_field(13)) == 9


def test_quartic_k3_counts():
    quartic = DiagonalVariety.fermat(4, 2)
    assert count_projective(quartic, make_field(3)) == 16
    assert count_projective(quartic, make_field(5)) == 0    # x^4 in {0,1} mod 5


def test_affine_projective_relation(quintic):
    # the affine cone minus the origin fibers over the projective set
    for p in (2, 3, 11):
        f = make_field(p)
        na = count_affine(quintic, f)
        np_ = count_projective(quintic, f)
        assert na - 1 == np_ * (f.q - 1)


def test_methods_agree():
    for exps, p, r in [((3, 3, 3), 7, 1), ((4, 4, 4, 4), 3, 2),
                       ((2, 3, 6), 5, 1), ((5, 5, 5, 5, 5), 2, 2)]:
        v = DiagonalVariety(exps)
        f = make_field(p, r)
        assert count_affine(v, f, method="direct") == \
            count_affine(v, f, method="convolution")


@pytest.mark.parametrize("p,r", [(3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_hyperplane_tuple_closed_form(p, r, k):
    # with every character trivial, (q-1) times the Jacobi kernel's unit sum
    # counts the unit k-tuples on the hyperplane sum = 0
    from itertools import product
    f = make_field(p, r)
    brute = sum(1 for t in product(range(1, f.q), repeat=k)
                if _sum_indices(f, t) == 0)
    [trivial] = unit_sums(f, [(1, [0] * (k - 1))])
    assert brute == ((f.q - 1) ** k + (-1) ** k * (f.q - 1)) // f.q
    assert brute == (f.q - 1) * trivial.rational_value()


def _sum_indices(f, t):
    acc = 0
    for x in t:
        acc = f.add(acc, x)
    return acc


def test_bad_reduction_raises(quintic):
    from cyarith.charsum import full_alpha_set
    with pytest.raises(BadReductionError):
        full_alpha_set(quintic, 5)
