"""Local zeta factors: frozen coefficients, point-count recovery, RH, and the
functional equation."""

import math

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import cyarith.zeta as zeta_module
from cyarith import (CycInt, DiagonalVariety, HeckeCharacter, LocalFactor,
                     count_projective, expected_degrees, full_alpha_set, is_prime,
                     local_factor_middle, predicted_count)
from cyarith.errors import InvariantViolationError, ValidationError
from cyarith.zeta import expand_roots
from oracles import (expand_powers_by_class, expand_roots_direct, ideal_jacobi_sums,
                     predicted_count_direct, split_prime_ideals)

PRIMES = [p for p in range(2, 60) if is_prime(p)]
TRUNCS = st.one_of(st.none(), st.integers(0, 8))


def test_quintic_factor_p11(quintic_lf11):
    lf = quintic_lf11
    assert lf.p == 11
    assert lf.full_degree == 204
    assert lf.is_exact
    assert lf.degree == 204
    assert len(lf.coeffs) == 205
    assert lf.coeffs[0] == 1
    assert lf.coeffs[1:5] == (461, 48686, -8869784, -1916532189)
    assert all(isinstance(c, int) for c in lf.coeffs)


def test_quintic_factor_p31_head(quintic_lf31):
    assert quintic_lf31.coeffs[:3] == (1, 16641, 138483696)
    assert quintic_lf31.full_degree == 204


def test_quintic_factor_p2(quintic_lf2):
    lf = quintic_lf2
    # 51 Frobenius orbits of length 4; every orbit root is -64 = -(2^4)^{3/2}
    assert len(lf.orbits) == 51
    assert all(f == 4 for _, f in lf.orbits)
    assert all(j.rational_value() == -64 for j, _ in lf.orbits)
    assert lf.coeffs[4] == 51 * 64 == 3264
    assert all(lf.coeffs[i] == 0 for i in range(1, 4))


def test_predicted_counts_match_enumeration(quintic, quintic_lf11, quintic_lf2):
    assert predicted_count(quintic_lf11, 1) == count_projective(quintic, 11)
    for r in (1, 2, 3, 4):
        assert predicted_count(quintic_lf2, r) == count_projective(quintic, 2, r)
    with pytest.raises(ValidationError):
        predicted_count(quintic_lf2, 0)


def test_cubic_factors():
    cubic = DiagonalVariety.fermat(3, 1)
    for p, coeffs in [(7, (1, 1, 7)), (13, (1, -5, 13)), (2, (1, 0, 2))]:
        lf = local_factor_middle(cubic, p)
        assert lf.coeffs == coeffs
        assert predicted_count(lf, 1) == count_projective(cubic, p)


def test_k3_quartic_factors():
    quartic = DiagonalVariety.fermat(4, 2)
    lf5 = local_factor_middle(quartic, 5)
    assert lf5.coeffs[:4] == (1, 31, 250, -2050)
    assert lf5.full_degree == 21
    assert predicted_count(lf5, 1) == 0     # x^4 mod 5 only reaches {0, 1}
    lf3 = local_factor_middle(quartic, 3)
    assert lf3.coeffs[:4] == (1, -3, -90, 270)
    for r in (1, 2):
        assert predicted_count(lf3, r) == count_projective(quartic, 3, r)


def test_mixed_exponent_elliptic():
    v = DiagonalVariety((2, 3, 6))
    for p, coeffs in [(5, (1, 0, 5)), (7, (1, -4, 7)),
                      (11, (1, 0, 11)), (13, (1, -2, 13))]:
        lf = local_factor_middle(v, p)
        assert lf.coeffs == coeffs
        assert predicted_count(lf, 1) == count_projective(v, p)


def test_riemann_hypothesis_reports(quintic_lf11, quintic_lf31):
    # LocalFactor checks RH once per Galois class; here every root is checked
    for lf in (quintic_lf11, quintic_lf31):
        assert len(lf.orbits) == 204
        for j, f in lf.orbits:
            assert j * j.conj() == CycInt.from_int(j.m, lf.p ** (3 * f))


def test_functional_equation(quintic_lf11, quintic_lf2):
    assert quintic_lf11.sign == 1
    assert quintic_lf2.sign == 1
    # K3 at p = 5 picks the minus sign
    lf5 = local_factor_middle(DiagonalVariety.fermat(4, 2), 5)
    assert lf5.sign == -1


@pytest.mark.parametrize("coeffs, reason", [((1, 2), r"i\*B odd"),
                                            ((1, 3, 4), "leading coeff"),
                                            ((1, 3, -2), "palindrome")])
def test_local_factor_checks_functional_equation(monkeypatch, coeffs, reason):
    # RH and Galois closure imply the functional equation, so forged
    # expansions (p = 2, weight 1) stand in for a broken one
    monkeypatch.setattr(zeta_module, "expand_roots", lambda orbits, base, trunc: coeffs)
    with pytest.raises(InvariantViolationError, match=reason):
        LocalFactor(p=2, cohomology_degree=1, full_degree=len(coeffs) - 1, orbits=())


def test_truncation(quintic):
    lf = local_factor_middle(quintic, 7, max_root_field=100)
    assert not lf.is_exact
    assert lf.precision == 3
    assert lf.coeffs == (1,)               # no orbit fits below t^4
    assert lf.full_degree == 204
    assert lf.sign is None                 # no functional equation to check
    with pytest.raises(ValidationError):
        lf.degree


def test_expected_degrees():
    # quintic threefold hodge numbers force the 204
    deg = expected_degrees({"h11": 1, "h21": 101}, 3)
    assert deg[3] == 2 + 2 * 101 == 204
    assert deg[0] == deg[6] == 1
    assert deg[2] == deg[4] == 1
    k3 = expected_degrees(None, 2)
    assert k3[2] == 22
    curve = expected_degrees(None, 1)
    assert curve[1] == 2
    with pytest.raises(ValidationError, match="h11, h21"):
        expected_degrees(None, 3)
    # the sextic fourfold: deg P_4 = 2 + 2 h31 + h22 = 2606 counts the
    # hyperplane class h^2 and the 2,605 tuples of the degree set
    deg = expected_degrees({"h11": 1, "h21": 0, "h31": 426, "h22": 1752}, 4)
    assert deg == {0: 1, 1: 0, 2: 1, 3: 0, 4: 2606, 5: 0, 6: 1, 7: 0, 8: 1}
    assert deg[4] == 1 + len(full_alpha_set(DiagonalVariety((6,) * 6), 7).tuples)
    with pytest.raises(ValidationError, match="needs Hodge numbers h31, h22"):
        expected_degrees({"h11": 1, "h21": 0}, 4)


@pytest.mark.parametrize("p,r", [(7, 4), (13, 1), (19, 2)])
def test_quintic_complete_at_large_residue_fields(quintic, p, r):
    # orbit sums over F_{7^4}, F_{13^4} and F_{19^2}; N_r ties the orbits of
    # length dividing r to an independent point count
    lf = local_factor_middle(quintic, p)
    assert lf.degree == 204
    assert lf.sign == 1
    for k in {1, r}:
        assert predicted_count(lf, k) == count_projective(quintic, p, k)


# -- the norm-class expansion against the per-coefficient oracle -----------------


@st.composite
def _good_vector_and_prime(draw):
    v = DiagonalVariety(tuple(draw(st.lists(st.integers(2, 7), min_size=3,
                                            max_size=5))))
    return v, draw(st.sampled_from([p for p in PRIMES if v.is_good_prime(p)]))


@settings(max_examples=60, deadline=None)
@given(case=_good_vector_and_prime(), trunc=TRUNCS)
@example(case=(DiagonalVariety((5,) * 5), 11), trunc=None)      # quintic, split
@example(case=(DiagonalVariety((5,) * 5), 2), trunc=None)       # quintic, p = 2
@example(case=(DiagonalVariety((2, 2, 2, 2)), 3), trunc=None)   # quadric
@example(case=(DiagonalVariety((2, 3, 6)), 13), trunc=1)        # non-Fermat
def test_expand_roots_matches_direct_on_local_factors(case, trunc):
    v, p = case
    orbits = local_factor_middle(v, p, max_root_field=4096).orbits
    # the oracle is quadratic in the degree: keep complete expansions small
    assume(trunc is not None or sum(f for _, f in orbits) <= 204)
    assert expand_roots(orbits, p ** v.complex_dim, trunc) == expand_roots_direct(orbits, trunc)


@settings(max_examples=40, deadline=None)
@given(m=st.integers(3, 13), data=st.data(), trunc=TRUNCS)
def test_expand_roots_matches_direct_on_hecke_roots(m, data, trunc):
    a = data.draw(st.lists(st.integers(1, m - 1), min_size=2, max_size=4))
    chi = HeckeCharacter(m, tuple(a))
    p = data.draw(st.sampled_from([p for p in range(2, 200)
                                   if is_prime(p) and p % m == 1]))
    roots = [(j, 1) for j in ideal_jacobi_sums(split_prime_ideals(p, m), [chi.a])]
    assert expand_roots(roots, p ** chi.weight, trunc) == expand_roots_direct(roots, trunc)
    if trunc is None:
        assert chi.local_factor(p).coeffs == expand_roots_direct(roots, None)


def test_expand_roots_needs_whole_galois_classes():
    orbits = list(local_factor_middle(DiagonalVariety((3, 3, 6, 6)), 7).orbits)
    k = next(i for i, (j, _) in enumerate(orbits) if not j.is_rational())
    assert expand_roots(orbits, 7 ** 2, None) == expand_roots_direct(orbits, None)
    for bad in (orbits[:k] + orbits[k + 1:], orbits + [orbits[k]]):
        with pytest.raises(InvariantViolationError, match="Galois-closed"):
            expand_roots(bad, 7 ** 2, None)


def _doubled_class(roots):
    """roots with every member of one non-rational Galois class times 2: still
    Galois-closed with an integral norm polynomial, but |2J|^2 = 4|J|^2."""
    head = next(j for j, _ in roots if not j.is_rational())
    units = [l for l in range(1, head.m) if math.gcd(l, head.m) == 1]
    cls = {head.galois(l) for l in units}
    return [(2 * j if j in cls else j, f) for j, f in roots]


def test_expand_roots_checks_rh_per_galois_class():
    zeta_roots = list(local_factor_middle(DiagonalVariety((3, 3, 6, 6)), 7).orbits)
    chi = HeckeCharacter(5, (1, 1, 1, 1))
    hecke_roots = [(j, 1) for j in ideal_jacobi_sums(split_prime_ideals(11, 5), [chi.a])]
    for roots, base in ((zeta_roots, 7 ** 2), (hecke_roots, 11 ** chi.weight)):
        assert expand_roots(roots, base, None) == expand_roots_direct(roots, None)
        bad = _doubled_class(roots)
        assert expand_roots_direct(bad, None)[0] == 1     # integral: only RH is off
        with pytest.raises(InvariantViolationError, match=r"\|J\|\^2"):
            expand_roots(bad, base, None)


# -- one power per distinct norm polynomial ---------------------------------------


_NORM = st.lists(st.integers(-9, 9), min_size=1, max_size=3).map(lambda c: (1, *c))


@settings(max_examples=60, deadline=None)
@given(powers=st.dictionaries(st.tuples(_NORM, st.sampled_from([1, 2, 4])),
                              st.integers(1, 60), min_size=1, max_size=3),
       trunc=st.one_of(st.none(), st.integers(0, 12)))
@example(powers={((1, -3, 2), 1): 60}, trunc=None)
@example(powers={((1, 2), 1): 7, ((1, 0, -5), 2): 3, ((1, 1, 1, 1), 4): 2}, trunc=None)
@example(powers={((1, 2), 1): 7, ((1, 0, -5), 2): 3, ((1, 1, 1, 1), 4): 2}, trunc=9)
@example(powers={((1, 4), 4): 5}, trunc=1)            # the power cut below t^trunc
def test_expand_powers_matches_class_by_class(powers, trunc):
    assert zeta_module._expand_powers(powers, trunc) == expand_powers_by_class(powers, trunc)


@pytest.mark.parametrize("p, most", [(11, 2), (2, 1)])
def test_one_product_per_distinct_norm(monkeypatch, quintic, p, most):
    # p = 11 has 51 Galois classes of roots and 2 norm polynomials; p = 2 has one
    calls = []
    real = zeta_module._mul_in_power
    monkeypatch.setattr(zeta_module, "_mul_in_power",
                        lambda *args: calls.append(args) or real(*args))
    lf = local_factor_middle(quintic, p)
    assert lf.degree == 204 and 1 <= len(calls) <= most
    assert lf.coeffs == expand_roots_direct(lf.orbits, None)


def test_norm_power_needs_constant_term_one():
    # (1 - 3u + 2u^2)^3, whole and through u^2
    assert zeta_module._norm_power([1, -3, 2], 3, None) == [1, -9, 33, -63, 66, -36, 8]
    assert zeta_module._norm_power([1, -3, 2], 3, 2) == [1, -9, 33]
    for bad in ([2, 1], [0, 1], [-1, 3, 2]):
        with pytest.raises(InvariantViolationError, match="constant term"):
            zeta_module._norm_power(bad, 3, None)


# -- N_r by Newton's identities against the orbit-root trace ----------------------


@st.composite
def _nonempty_vector_and_prime(draw):
    """Like _good_vector_and_prime, but Fermat half of the time: most mixed
    vectors have an empty degree set."""
    if draw(st.booleans()):
        v = DiagonalVariety((draw(st.integers(2, 7)),) * draw(st.integers(3, 5)))
        return v, draw(st.sampled_from([p for p in PRIMES if v.is_good_prime(p)]))
    return draw(_good_vector_and_prime())


@settings(max_examples=40, deadline=None)
@given(case=_nonempty_vector_and_prime(), cap=st.sampled_from([64, 4096]),
       data=st.data())
@example(case=(DiagonalVariety((5,) * 5), 2), cap=4096, data=None)     # odd n, f = 4
@example(case=(DiagonalVariety((2, 2, 4, 4)), 11), cap=64, data=None)  # truncated at t^1
@example(case=(DiagonalVariety((4,) * 4), 5), cap=4096, data=None)     # K3, even n
@example(case=(DiagonalVariety((2, 3, 6)), 13), cap=4096, data=None)   # non-Fermat
@example(case=(DiagonalVariety((2, 2, 2, 2)), 3), cap=4096, data=None)  # quadric
def test_predicted_count_matches_orbit_trace(case, cap, data):
    v, p = case
    lf = local_factor_middle(v, p, max_root_field=cap)
    # the oracle raises each root to the r-th power: keep the degree moderate
    assume(0 < lf.full_degree <= 250)
    # a truncated factor is exact through t^precision, a complete one for all r
    top = lf.precision if not lf.is_exact else lf.degree + 2
    assume(top >= 1)
    if data is None:
        rs = set(range(1, min(top, 8) + 1)) | {top - 1, top} - {0}
    else:
        rs = data.draw(st.sets(st.integers(1, top), min_size=1, max_size=5))
    for r in sorted(rs):
        assert predicted_count(lf, r) == predicted_count_direct(lf, r)
    if not lf.is_exact:
        for predict in (predicted_count, predicted_count_direct):
            with pytest.raises(ValidationError, match="truncated"):
                predict(lf, top + 1)
