"""End-to-end acceptance checks.

Each test is one numbered criterion and emits a single [PASS]/[FAIL] line
(visible with -s, or in the failure report); the pytest -v status line per
test doubles as the machine-readable verdict.  Tolerances are part of the
criterion text and are not loosened here.
"""

import math
import random
import time
from collections import Counter
from fractions import Fraction

from cyarith import (CycInt, DiagonalVariety,
                     check_kn_identity, check_kr_identity, count_projective,
                     cyclotomic_unit, dirichlet_coefficients,
                     fusion_field_match, gepner_levels, local_factor_middle,
                     match_hasse_weil, predicted_count,
                     quantum_dimension, verlinde_fusion)
from oracles import class_roots


def report(num, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    print(line)
    assert ok, line


def test_criterion_01_quintic_factor_exact_and_fast(quintic):
    t0 = time.monotonic()
    lf11 = local_factor_middle(quintic, 11)
    n1_11 = count_projective(quintic, 11)
    dt11 = time.monotonic() - t0

    t0 = time.monotonic()
    lf31 = local_factor_middle(quintic, 31)
    n1_31 = count_projective(quintic, 31)
    dt31 = time.monotonic() - t0

    ok = (lf11.degree == 204 and lf31.degree == 204
          and all(isinstance(c, int) for c in lf11.coeffs + lf31.coeffs)
          and predicted_count(lf11, 1) == n1_11
          and predicted_count(lf31, 1) == n1_31
          and dt11 < 10.0 and dt31 < 180.0)
    report(1, ok, f"quintic degree-204 factors at p=11, 31; N1 = {n1_11}, "
                  f"{n1_31} recovered exactly ({dt11:.2f}s, {dt31:.2f}s)")


def test_criterion_02_quintic_p2_extension_counts(quintic):
    t0 = time.monotonic()
    lf2 = local_factor_middle(quintic, 2)
    counts = {r: count_projective(quintic, 2, r) for r in (1, 2, 3, 4)}
    dt = time.monotonic() - t0
    ok = (len(lf2.classes) == 51 and all((f, n) == (4, 1) for _, f, n in lf2.classes)
          and counts[2] == 85
          and all(predicted_count(lf2, r) == counts[r] for r in (1, 2, 3, 4))
          and dt < 30.0)
    report(2, ok, f"quintic at p=2: 51 order-4 orbits, N_r = "
                  f"{[counts[r] for r in (1, 2, 3, 4)]} for r = 1..4 ({dt:.2f}s)")


def _rh_holds(lf):
    """|J|^2 = p^(i*f) exactly in Z[mu_m] for every computed root of lf."""
    return all(j * j.conj() == CycInt.from_int(j.m, lf.p ** (lf.cohomology_degree * f))
               for j, f in class_roots(lf.classes))


def test_criterion_03_riemann_hypothesis_exact(quintic_lf11, quintic_lf31):
    ok = all(len(class_roots(lf.classes)) == 204
             and sum(f for _, f in class_roots(lf.classes)) == 204
             and _rh_holds(lf) for lf in (quintic_lf11, quintic_lf31))
    report(3, ok, "beta * conj(beta) = p^3 exactly in Z[mu_5] for all 204 "
                  "roots at p = 11 and 31")


def test_criterion_04_functional_equation(quintic_lf11, quintic_lf31):
    signs = [lf.sign for lf in (quintic_lf11, quintic_lf31)]
    ok = all(sign in (1, -1) for sign in signs)
    report(4, ok, f"root multisets conjugation-closed and palindromic with "
                  f"signs {signs} at p = 11, 31")


def test_criterion_05_fermat_cubic():
    cubic = DiagonalVariety.fermat(3, 1)
    checks = []
    for p in (7, 13):
        lf = local_factor_middle(cubic, p)
        n1 = count_projective(cubic, p)
        checks.append(lf.degree == 2 and predicted_count(lf, 1) == n1
                      and _rh_holds(lf))
    report(5, all(checks), "cubic curve at p = 7, 13: deg P1 = 2, N1 exact, "
                           "|beta|^2 = p exact")


def test_criterion_06_hasse_weil_vs_hecke(quintic, quintic_lf11, quintic_lf31):
    reps = [match_hasse_weil(quintic, 11, quintic_lf11),
            match_hasse_weil(quintic, 31, quintic_lf31)]
    ok = all(r.multiset_size == 204 and r.ideals == 4 for r in reps)
    report(6, ok, "zeta factor = product of the Hecke factors of its 51 Galois-class "
                  "heads (Weil's factorisation) at both p = 11 and 31")


def test_criterion_07_dirichlet_coefficients(quintic):
    coeffs = dirichlet_coefficients(quintic, 100)
    mult_ok = all(coeffs.a(i * j) == coeffs.a(i) * coeffs.a(j)
                  for i in range(2, 51) for j in range(2, 101)
                  if i * j <= 100 and math.gcd(i, j) == 1)
    split = [p for p in (11, 31, 41, 61, 71)]
    trace_ok = all(
        coeffs.a(p) == 1 + p + p ** 2 + p ** 3
        - count_projective(quintic, p) for p in split)
    report(7, mult_ok and trace_ok,
           "a_n for n <= 100: multiplicative on all coprime pairs, "
           "a_p = 1 + p + p^2 + p^3 - N1 at split primes")


def test_criterion_08_central_charge_sum_rule():
    worst = max(check_kr_identity(k) for k in range(1, 31))
    report(8, worst < 1e-9,
           f"quantum-dimension sum rule residual <= {worst:.2e} for k = 1..30")


KN_SKIPS = [
    (2, 1), (4, 1), (4, 2), (4, 3), (6, 1), (6, 3), (6, 5), (7, 2), (7, 5),
    (8, 1), (8, 3), (8, 4), (8, 5), (8, 7), (10, 1), (10, 2), (10, 3),
    (10, 5), (10, 7), (10, 8), (10, 9), (12, 1), (12, 3), (12, 5), (12, 6),
    (12, 7), (12, 9), (12, 11),
]


def test_criterion_09_twisted_sum_rule():
    skipped, worst = [], 0.0
    for k in range(1, 13):
        for m in range(0, k + 1):
            res = check_kn_identity(k, m)
            if res.residual is None:
                skipped.append((k, m))
            else:
                worst = max(worst, res.residual)
    ok = worst < 1e-9 and skipped == KN_SKIPS
    report(9, ok, f"twisted sum rule residual <= {worst:.2e} for k = 1..12; "
                  f"{len(skipped)} pairs with vanishing Q skipped: {skipped}")


def test_criterion_10_verlinde_fusion():
    ok = True
    for k in range(1, 21):
        N = verlinde_fusion(k)
        if any(type(x) is not int or x < 0 for plane in N for row in plane for x in row):
            ok = False
            break
        for l in range(k + 1):
            for m in range(k + 1):
                for n in range(k + 1):
                    want = int(abs(l - m) <= n <= min(l + m, 2 * k - l - m)
                               and (l + m + n) % 2 == 0)
                    if N[l][m][n] != want:
                        ok = False
    report(10, ok, "fusion tensors for k = 1..20 are nonnegative integers "
                   "matching the closed form exactly")


def test_criterion_11_quantum_dimensions_are_units():
    # fusion_field_match raises unless Q_l = xi^-l theta_(l+1) in Z[mu_2(k+2)]
    ok = all(e.abs_err == 0.0
             for k in range(1, 51) for e in fusion_field_match(k).entries
             if e.unit_index is not None)
    golden = (1 + math.sqrt(5)) / 2
    _, theta2 = cyclotomic_unit(5, 2)
    k3 = abs(quantum_dimension(3, 1) - golden) < 1e-12 and \
        abs(theta2 - golden) < 1e-12
    report(11, ok and k3,
           "Q_l(k) = xi^-l theta_(l+1) exactly in Z[mu_2(k+2)] for k = 1..50; "
           "k=3 gives the golden ratio")


def test_criterion_12_gepner_levels():
    levels = gepner_levels(9, 9)
    ok = (3, 3, 3, 3, 3) in levels and all(
        sum(Fraction(3 * k, k + 2) for k in t) == 9 for t in levels)
    report(12, ok, f"{len(levels)} level multisets with central charge "
                   f"exactly 9, including (3, 3, 3, 3, 3)")


def test_criterion_13_ring_axioms_and_units():
    rng = random.Random(20260815)
    conductors = (3, 4, 5, 8, 12)
    for _ in range(1000):
        m = rng.choice(conductors)
        a, b, c = (CycInt.from_exponent_counts(
            m, [rng.randint(-30, 30) for _ in range(m)]) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert a * (b * c) == (a * b) * c
        assert (a * b).norm() == a.norm() * b.norm()
    norms = {abs(cyclotomic_unit(m, j)[0].norm()) for m in (5, 8, 12)
             for j in range(2, m - 1) if math.gcd(j, m) == 1}
    report(13, norms == {1},
           "1000 random ring-axiom and norm cases pass; the units theta_j of "
           "conductor 5, 8 and 12 have norm +-1")
