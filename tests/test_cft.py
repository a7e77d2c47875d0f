"""Modular data, fusion rules, dilogarithm identities, and the bridge from
quantum dimensions to cyclotomic units."""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import spence

from cyarith import (CycInt, check_kn_identity, check_kr_identity, euler_Li2,
                     fusion_field_match, gepner_levels, modular_data,
                     n2_spectrum, quantum_dimension, rogers_L, verlinde_fusion)
import cyarith.cft as cft
from cyarith.errors import InvariantViolationError, ValidationError

PI2_6 = math.pi ** 2 / 6


def su2_fusion_oracle(k, l, m, n):
    """Closed form: N = 1 iff |l-m| <= n <= min(l+m, 2k-l-m), l+m+n even."""
    return int(abs(l - m) <= n <= min(l + m, 2 * k - l - m) and (l + m + n) % 2 == 0)


def test_euler_li2_against_scipy():
    # scipy convention: spence(z) = Li2(1 - z)
    for z in np.linspace(-1.0, 1.0, 401):
        assert euler_Li2(float(z)) == pytest.approx(spence(1.0 - float(z)),
                                                    rel=1e-13, abs=1e-14)


def test_euler_li2_exact_points():
    assert euler_Li2(1.0) == PI2_6
    assert euler_Li2(-1.0) == -PI2_6 / 2
    assert euler_Li2(0.5) == pytest.approx(PI2_6 / 2 - math.log(2) ** 2 / 2, rel=1e-15)
    assert euler_Li2(0.0) == 0.0
    with pytest.raises(ValidationError):
        euler_Li2(1.5)
    with pytest.raises(ValidationError):
        euler_Li2(float("nan"))


def test_rogers_dilog():
    assert rogers_L(0.0) == 0.0
    assert rogers_L(1.0) == PI2_6
    assert rogers_L(0.5) == pytest.approx(PI2_6 / 2, rel=1e-14)
    for x in np.linspace(0.01, 0.99, 50):
        x = float(x)
        assert rogers_L(x) + rogers_L(1.0 - x) == pytest.approx(PI2_6, rel=1e-13)
    # real extension used by the sum rules: L(x) = 2 L(1) - L(1/x)
    assert rogers_L(4.0) == pytest.approx(2 * PI2_6 - rogers_L(0.25), rel=1e-14)
    with pytest.raises(ValidationError):
        rogers_L(-0.1)


def test_modular_data():
    md = modular_data(3)
    assert md.c == Fraction(9, 5)
    assert md.deltas == (0, Fraction(3, 20), Fraction(2, 5), Fraction(3, 4))
    with pytest.raises(ValidationError):
        modular_data(0)


def test_quantum_dimension():
    golden = (1 + math.sqrt(5)) / 2
    assert quantum_dimension(3, 1) == pytest.approx(golden, rel=1e-15)
    assert quantum_dimension(3, 2) == pytest.approx(golden, rel=1e-15)
    assert quantum_dimension(3, 0) == 1.0
    assert quantum_dimension(2, 1, 1) == 0.0        # sine zero, returned exactly
    with pytest.raises(ValidationError):
        quantum_dimension(3, 4)


@pytest.mark.parametrize("k", range(1, 41))
def test_verlinde_fusion_matches_closed_form(k):
    labels = range(k + 1)
    N = verlinde_fusion(k)
    assert N == tuple(tuple(tuple(su2_fusion_oracle(k, l, m, n) for n in labels)
                            for m in labels) for l in labels)
    assert {type(x) for plane in N for row in plane for x in row} == {int}


def test_fusion_ring_holds_in_cyclotomic_integers():
    # Q_a Q_b = sum_c N_ab^c Q_c in Z[mu_2n], Q_l = sum_t xi^(l-2t), n = k+2
    for k in range(1, 41):
        n2 = 2 * (k + 2)
        N = verlinde_fusion(k)
        qs = [CycInt.from_exponent_counts(n2, Counter((l - 2 * t) % n2 for t in range(l + 1)))
              for l in range(k + 1)]
        for a in range(k + 1):
            for b in range(a + 1):
                assert qs[a] * qs[b] == sum((x * q for x, q in zip(N[a][b], qs)),
                                            CycInt.zero(n2)), (k, a, b)


def test_n2_spectrum():
    sp = n2_spectrum(1)
    assert len(sp.entries) == 12
    match = [e for e in sp.entries if (e.l, e.q, e.s) == (1, 1, 0)]
    assert len(match) == 1
    assert match[0].delta == Fraction(1, 6)
    assert match[0].charge == Fraction(1, 3)
    # charged vacuum-sector pairs delta = |Q|/2 (chiral primaries, s = 0)
    for e in sp.entries:
        if e.s == 0 and e.q == e.l:
            assert e.delta == abs(e.charge) / 2


def test_kr_identity():
    for k in range(1, 31):
        # one Rogers sum serves both rules: KR is KN's m = 0 row, to the bit
        assert check_kr_identity(k) == check_kn_identity(k, 0).residual < 1e-9
    with pytest.raises(ValidationError):
        check_kr_identity(0)


def test_kn_identity():
    res = check_kn_identity(3, 1)
    assert res.rhs == pytest.approx(4.2, rel=1e-15)
    assert res.residual < 1e-9
    assert res.vanishing == ()
    skipped = check_kn_identity(2, 1)
    assert skipped.residual is None and skipped.lhs is None
    assert skipped.vanishing == (1,)
    # m = 0 degenerates to the plain sum rule
    base = check_kn_identity(5, 0)
    assert base.rhs == pytest.approx(3 * 5 / 7, rel=1e-15)
    assert base.residual < 1e-9
    with pytest.raises(ValidationError):
        check_kn_identity(3, 4)


def test_fusion_field_match():
    rep = fusion_field_match(3)
    assert rep.conductor == 5
    assert [e.unit_index for e in rep.entries] == [1, 2, 3, 4]
    assert all(e.abs_err == 0.0 for e in rep.entries)
    # gcd(l+1, k+2) > 1 labels are carried but not matched
    rep2 = fusion_field_match(2)
    assert rep2.conductor == 4
    assert [e.unit_index for e in rep2.entries] == [1, None, 3]
    assert [e.abs_err for e in rep2.entries] == [0.0, None, 0.0]


def _scaled_rogers_L(monkeypatch, factor):
    real = cft.rogers_L
    monkeypatch.setattr(cft, "rogers_L", lambda x: real(x) * factor)


def test_sum_rules_raise_past_identity_tol(monkeypatch):
    # a relative error of 1e-6 in L pushes both residuals far past 1e-9
    _scaled_rogers_L(monkeypatch, 1 + 1e-6)
    with pytest.raises(InvariantViolationError, match="k=3"):
        check_kr_identity(3)
    with pytest.raises(InvariantViolationError, match="k=3, m=1"):
        check_kn_identity(3, 1)
    # a skipped pair computes no residual, so it cannot fail
    assert check_kn_identity(2, 1).residual is None


def test_fusion_field_match_raises_off_the_unit(monkeypatch):
    real = cft.cyclotomic_unit

    def off(m, j):
        exact, numeric = real(m, j)
        return (exact + 1 if j == 2 else exact), numeric

    monkeypatch.setattr(cft, "cyclotomic_unit", off)
    with pytest.raises(InvariantViolationError, match="theta_2"):
        fusion_field_match(3)


@pytest.mark.parametrize("fault", ["extra", "missing"])
def test_verlinde_fusion_raises_on_a_broken_character(monkeypatch, fault):
    # one term too many in Q_1, or one too few in Q_2, breaks N_ab = N_ba
    real = cft._character

    def broken(l, n2):
        exps = real(l, n2)
        if fault == "extra":
            return exps + [0] if l == 1 else exps
        return exps[1:] if l == 2 else exps

    monkeypatch.setattr(cft, "_character", broken)
    with pytest.raises(InvariantViolationError, match="not equal and nonnegative"):
        verlinde_fusion(3)


def test_gepner_levels():
    assert gepner_levels(3, 4) == [(1, 4), (2, 2), (1, 1, 1)]
    levels = gepner_levels()
    assert len(levels) == 168
    for member in [(3, 3, 3, 3, 3), (2, 2, 2, 2, 2, 2), (1, 16, 16, 16),
                   (2, 3, 19, 418)]:
        assert member in levels
    assert levels[0] == (1, 5, 41, 1804)    # Sylvester expansion of 1/2
    for t in levels:
        assert sum(Fraction(3 * k, k + 2) for k in t) == 9
    with pytest.raises(ValidationError):
        gepner_levels(9, 0)
