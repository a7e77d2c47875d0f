"""The conjugate Jacobi sums at a split prime against the labelled-ideal
oracle, Dirichlet coefficients, and the Hasse-Weil vs Hecke match."""

import math
import random
from collections import Counter
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from cyarith import (CycInt, DiagonalVariety, HeckeCharacter,
                     count_projective,
                     dirichlet_coefficients, euler_phi,
                     is_prime, local_factor_middle, make_field, match_hasse_weil,
                     partial_sum_eval)
from cyarith import ffield
from cyarith.errors import CapacityError, InvariantViolationError, ValidationError
from cyarith.charsum import galois_heads, unit_sums
from cyarith.hecke import _assemble, _smallest_prime_factors
from oracles import (SplitPrimeIdeal, class_roots, expand_roots_direct, ideal_jacobi_sum,
                     ideal_jacobi_sums, power_residue_char, split_prime_ideals,
                     splitting_data)


def test_splitting_data():
    assert splitting_data(11, 5) == (1, 4)    # totally split
    assert splitting_data(2, 5) == (4, 1)     # inert
    assert splitting_data(19, 5) == (2, 2)
    assert splitting_data(31, 5) == (1, 4)
    with pytest.raises(ValidationError):
        splitting_data(10, 5)
    with pytest.raises(ValidationError):
        splitting_data(5, 5)                  # ramified


def test_split_prime_ideals_p11():
    ideals = split_prime_ideals(11, 5)
    assert [i.c for i in ideals] == [3, 4, 5, 9]
    # each label has exact multiplicative order 5 in F_11
    for i in ideals:
        assert pow(i.c, 5, 11) == 1 and i.c != 1
    with pytest.raises(ValidationError):
        SplitPrimeIdeal(11, 5, 2)             # order 10, not 5
    with pytest.raises(ValidationError):
        SplitPrimeIdeal(7, 5, 3)              # 7 not split mod 5


def test_power_residue_char():
    i3 = split_prime_ideals(11, 5)[0]
    # chi(c) = xi^2 here, not xi: c^((p-1)/m) = c^2 which is the residue of xi^2
    assert power_residue_char(i3, 3).coeffs == (0, 0, 1, 0)
    for u, e in enumerate([0, 4, 2, 3, 1, 1, 3, 2, 4, 0], start=1):
        assert power_residue_char(i3, u) == CycInt.root(5, e)
    assert power_residue_char(i3, 1).rational_value() == 1
    for u in range(1, 11):
        for v in range(1, 11):
            lhs = power_residue_char(i3, u * v % 11)
            assert lhs == power_residue_char(i3, u) * power_residue_char(i3, v)
    with pytest.raises(ValidationError):
        power_residue_char(i3, 0)


def test_ideal_jacobi_sum_quintic():
    ideals = split_prime_ideals(11, 5)
    j = ideal_jacobi_sum(ideals[0], (1, 1, 1, 1))
    assert j.coeffs == (6, -20, -10, -35)
    assert (j * j.conj()).rational_value() == 11 ** 3
    # trace over the four conjugate ideals
    total = sum(ideal_jacobi_sum(i, (1, 1, 1, 1)).lift(5) for i in ideals[1:]
                ) + j
    assert total.rational_value() == 89
    # the product over the four ideals is the norm, the top coefficient
    assert HeckeCharacter(5, (1, 1, 1, 1)).local_factor(11).coeffs[4] == 11 ** 6


def test_ideal_jacobi_sum_trivial_character():
    # all a_i = 0: J = -#{4-tuples of units summing to -1} = -((q-1)^4 - 1)/q
    i3 = split_prime_ideals(11, 5)[0]
    j = ideal_jacobi_sum(i3, (0, 0, 0, 0))
    assert j.rational_value() == -(10 ** 4 - 1) // 11 == -909


def test_ideal_jacobi_sum_degenerate():
    # sum(a) = 0 mod m collapses the sum to a unit: J = chi(-1), here +1
    # since (p-1)/m is even, and HeckeCharacter(5, (1, 4)).weight is 0.
    for ideal in split_prime_ideals(11, 5):
        j = ideal_jacobi_sum(ideal, (1, 4))
        assert j.rational_value() == 1
    assert ideal_jacobi_sums([], [(1, 4)]) == []             # no ideals, no sums


def _ideal_sum_brute(ideal, a):
    """J_a(ideal) from its definition; chi(u) is read off by matching
    u^((p-1)/m) against the powers of the label c, without dlog tables."""
    p, m = ideal.p, ideal.m
    power_of_c = {pow(ideal.c, j, p): j for j in range(m)}
    chi = [0] + [power_of_c[pow(u, (p - 1) // m, p)] for u in range(1, p)]
    counts = [0] * m
    for head in product(range(1, p), repeat=len(a) - 1):
        last = (-1 - sum(head)) % p
        if last:
            counts[sum(x * chi[u] for x, u in zip(a, head + (last,))) % m] += 1
    return (-1) ** (len(a) + 1) * CycInt.from_exponent_counts(m, counts)


@st.composite
def _split_prime_and_vector(draw):
    p = draw(st.sampled_from([3, 5, 7, 11, 13, 17, 19, 23, 29, 31]))
    m = draw(st.sampled_from([d for d in range(2, p) if (p - 1) % d == 0]))
    return p, m, tuple(draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=4)))


@st.composite
def _ideal_and_vector(draw):
    p, m, a = draw(_split_prime_and_vector())
    return draw(st.sampled_from(split_prime_ideals(p, m))), a


@settings(max_examples=40, deadline=None)
@given(_ideal_and_vector())
def test_ideal_jacobi_sum_matches_brute_force(case):
    ideal, a = case
    assert ideal_jacobi_sum(ideal, a) == _ideal_sum_brute(ideal, a)


@settings(max_examples=40, deadline=None)
@given(_split_prime_and_vector())
@example((13, 4, (1, 3)))                 # composite m, sum(a) = 0 mod m
@example((7, 6, (0, 5, 1)))
@example((11, 10, (3, 0, 7, 0)))
@example((13, 12, (1, 5, 6)))
@example((31, 5, (1, 1, 1, 1)))
def test_conjugate_sums_match_labelled_ideals(case):
    # the phi(m) conjugates of one sum, the class (J_a, 1, phi(m)), are the
    # sums at the primes above p, each prime labelled and its sum
    # enumerated by the oracle
    p, m, a = case
    j = (-1) ** (len(a) + 1) * unit_sums((p, 1), [(m, a)])[0]
    assert Counter(c for c, _ in class_roots([(j, 1, euler_phi(m))])) == Counter(
        _ideal_sum_brute(ideal, a) for ideal in split_prime_ideals(p, m))


def test_match_hasse_weil(quintic, quintic_lf11, quintic_lf31):
    for p, lf in ((11, quintic_lf11), (31, quintic_lf31)):
        rep = match_hasse_weil(quintic, p, lf)
        assert rep.ideals == 4 and rep.orbit_reps == 51
        assert rep.multiset_size == 204
    with pytest.raises(ValidationError):
        match_hasse_weil(quintic, 7)          # f = 4, not split


@pytest.mark.parametrize("exps, p, sizes", [
    ((4, 4, 4, 4), 5, (2, 11, 21)),
    ((4, 4, 4, 4), 13, (2, 11, 21)),
    ((8, 8, 8, 8), 17, (4, 81, 301)),
    # non-Fermat: the derived last entry of a Hecke row mixes denominators
    ((3, 3, 6, 6), 7, (2, 9, 18)),
    ((2, 3, 6), 13, (2, 1, 2)),
    ((2, 4, 4), 5, (2, 1, 2)),
    ((2, 6, 6, 6), 7, (2, 11, 21)),
])
def test_match_hasse_weil_weights_classes_smaller_than_phi(exps, p, sizes):
    # the class of (2,2,2) mod 4 has one row, not phi(4) = 2: unweighted, the
    # Hecke side had 22 values against the K3 quartic's 21 roots
    rep = match_hasse_weil(DiagonalVariety(exps), p)
    assert (rep.ideals, rep.orbit_reps, rep.multiset_size) == sizes
    assert rep.multiset_size == local_factor_middle(DiagonalVariety(exps), p).degree


def test_match_hasse_weil_raises_on_mismatch(quintic, quintic_lf11, monkeypatch):
    # another class's sum in place of the first keeps |J|^2, Iwasawa's
    # congruence and an integral norm polynomial, but breaks Weil's
    # factorisation against the kept factor, built before the sums that
    # galois_factor reads are perturbed
    import cyarith.zeta as zeta
    real = zeta.unit_sums

    def perturbed(field, rows):
        sums = real(field, rows)
        first = {sums[0].galois(l) for l in range(1, 5)}
        return [next(j for j in sums if j not in first)] + sums[1:]

    monkeypatch.setattr(zeta, "unit_sums", perturbed)
    with pytest.raises(InvariantViolationError, match="disagree at p=11"):
        match_hasse_weil(quintic, 11, quintic_lf11)


def test_hasse_weil_euler_factors(quintic):
    coeffs = dirichlet_coefficients(quintic, 100)
    assert len(coeffs.included_primes) == 24
    assert coeffs.bad_primes == (5,)
    assert coeffs.weight == 3


def test_dirichlet_coefficients_quintic(quintic):
    coeffs = dirichlet_coefficients(quintic, 100)
    assert coeffs.a(1) == 1
    known = {11: -461, 16: -3264, 31: -16641, 41: 17469, 61: -4161, 71: 67349}
    for n, an in known.items():
        assert coeffs.a(n) == an
    assert coeffs.a(5) == 0 and coeffs.a(25) == 0          # bad prime
    assert coeffs.a(2) == 0 and coeffs.a(3) == 0           # inert heads vanish
    assert coeffs.bad_primes == (5,)
    # multiplicativity, exhaustively over coprime pairs
    for i in range(2, 101):
        for j in range(2, 101):
            if i * j > 100 or math.gcd(i, j) != 1:
                continue
            assert coeffs.a(i * j) == coeffs.a(i) * coeffs.a(j)


def test_ap_trace_identity(quintic):
    coeffs = dirichlet_coefficients(quintic, 100)
    for p in (11, 31, 41, 61, 71):
        n1 = count_projective(quintic, p)
        assert coeffs.a(p) == 1 + p + p ** 2 + p ** 3 - n1


def test_dirichlet_gap_detection(quintic):
    with pytest.raises(ValidationError):
        dirichlet_coefficients(quintic, 0)


LIBRARY_GUARDS = {
    "factor-inert": (lambda: HeckeCharacter(5, (1, 1, 1, 1)).local_factor(7),
                     "p=7 is not totally split mod 5"),
    "factor-ramified": (lambda: HeckeCharacter(5, (1, 1, 1, 1)).local_factor(5),
                        "p=5 is not totally split mod 5"),
    "factor-non-prime": (lambda: HeckeCharacter(5, (1, 1, 1, 1)).local_factor(21),
                         "21 is not prime"),
    "match-bad-prime": (lambda: match_hasse_weil(DiagonalVariety.fermat(5, 3), 5),
                        "5 divides an exponent of (5, 5, 5, 5, 5)"),
    "match-inert": (lambda: match_hasse_weil(DiagonalVariety.fermat(5, 3), 7),
                    "p=7 is not split (f=4); match needs p = 1 mod 5"),
    "match-non-prime": (lambda: match_hasse_weil(DiagonalVariety.fermat(5, 3), 21),
                        "21 is not prime"),
    "a-of-0": (lambda: dirichlet_coefficients(HeckeCharacter(5, (1, 4)), 10).a(0),
               "n=0 outside 1..10"),
    "source": (lambda: dirichlet_coefficients("x", 10), "unsupported coefficient source str"),
    "root-order": (lambda: ffield.root_minimal_polynomial(11, 1, 3),
                   "3 does not divide q-1 = 10"),
}


@pytest.mark.parametrize("case", LIBRARY_GUARDS)
def test_library_guards(case):
    call, message = LIBRARY_GUARDS[case]
    with pytest.raises(ValidationError) as exc:
        call()
    assert str(exc.value) == message


def test_hecke_character():
    chi = HeckeCharacter(5, (1, 1, 1, 1))
    assert chi.weight == 3
    lf = chi.local_factor(11)
    assert len(lf.coeffs) == 5
    assert lf.coeffs[1] == -89
    with pytest.raises(ValidationError):
        HeckeCharacter(5, (1, 5))             # entry vanishes mod m
    assert HeckeCharacter(5, (1, 4)).weight == 0   # sum(a) = 0 mod 5: |J| = 1


def test_hecke_coefficients():
    chi = HeckeCharacter(5, (1, 1, 1, 1))
    coeffs = dirichlet_coefficients(chi, 35)
    assert coeffs.a(11) == 89
    assert coeffs.a(31) == 409
    assert coeffs.included_primes == (11, 31)
    assert coeffs.bad_primes == (5,)
    assert 2 in coeffs.omitted_primes and 19 in coeffs.omitted_primes
    assert coeffs.a(22) == 0                   # 2 omitted kills the product


def _count_make_field(monkeypatch):
    """The make_field calls from here on."""
    import cyarith.tables as tables

    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return make_field(*args, **kwargs)

    monkeypatch.setattr(tables, "make_field", counting)
    return calls


def test_hecke_cutoff_beyond_table_bound(monkeypatch):
    # a composite conductor has no closed form, so its split primes read F_p:
    # refused before any field table is built, naming the first split prime
    # above the bound 2^20 (1048609 = 1 mod 12)
    calls = _count_make_field(monkeypatch)
    with pytest.raises(CapacityError, match="p=1048609 "):
        dirichlet_coefficients(HeckeCharacter(12, (1, 5, 6)), 1050000)
    assert calls == []


def test_lseries_cutoff_beyond_table_bound(monkeypatch):
    # every tuple of (2, 3, 6) has conductor 6, so a p = 1 mod 6 above the
    # bound needs F_p: refused before any field table is built.  No degree-2
    # table comes first: p^2 <= 1050000 forces p <= 1024
    calls = _count_make_field(monkeypatch)
    with pytest.raises(CapacityError, match="p=1048609 "):
        dirichlet_coefficients(DiagonalVariety((2, 3, 6)), 1050000)
    assert calls == []


def test_split_primes_past_prime_field_bound(quintic, monkeypatch):
    # conductor 5 with sum(a) != 0 mod 5 takes the closed form at split
    # primes, so no F_p table is built for them at any size
    calls = _count_make_field(monkeypatch)
    lf = HeckeCharacter(5, (1, 1, 1, 1)).local_factor(100151)
    assert lf.sign in (1, -1) and lf.coeffs[4] == 100151 ** 6
    full = local_factor_middle(quintic, 100151)
    assert full.is_exact and full.degree == 204
    assert calls == []


def test_split_primes_are_trial_divided_twice(monkeypatch):
    # the sieve proves every prime to the cutoff; a split prime is divided
    # again only by the input checks of unit_sums' field_order and of
    # field_generator, and hecke itself calls is_prime nowhere
    import cyarith.charsum as charsum
    import cyarith.hecke as hecke

    calls = []
    is_prime = ffield.is_prime

    def counted(n):
        calls.append(n)
        return is_prime(n)

    for module in (ffield, charsum):
        monkeypatch.setattr(module, "is_prime", counted)
        for memo in vars(module).values():      # earlier tests' memos skip some calls
            if hasattr(memo, "cache_clear"):
                memo.cache_clear()
    coeffs = dirichlet_coefficients(HeckeCharacter(5, (1, 1, 1, 1)), 20000)
    assert len(coeffs.included_primes) == 563 and len(calls) == 1126
    assert not hasattr(hecke, "is_prime")


def test_lseries_cutoff_beyond_extension_field_bound(monkeypatch):
    # conductor 6 has no closed form, and a p = 5 mod 6 has orbits of length
    # 2; 1031 is the first prime with 1031^2 > 2^20.  (The cubic curve's
    # orbits of length 2 are in closed form and need no table.)
    calls = _count_make_field(monkeypatch)
    with pytest.raises(CapacityError, match=r"p=1031 needs a table of F_1062961 \(degree 2\)"):
        dirichlet_coefficients(DiagonalVariety((2, 3, 6)), 1031**2)
    assert calls == []


PLANNED_SOURCES = {
    "2,3,6": DiagonalVariety((2, 3, 6)), "3,3,6,6": DiagonalVariety((3, 3, 6, 6)),
    "4,4,4,4": DiagonalVariety((4, 4, 4, 4)), "2,2,2,2": DiagonalVariety((2, 2, 2, 2)),
    "3,3,3": DiagonalVariety((3, 3, 3)), "quintic": DiagonalVariety.fermat(5, 3),
    "12;1,5,6": HeckeCharacter(12, (1, 5, 6)), "5;1,4": HeckeCharacter(5, (1, 4)),
    "7;1,2,4": HeckeCharacter(7, (1, 2, 4)), "4;1,1,1": HeckeCharacter(4, (1, 1, 1)),
    "5;1,1,1,1": HeckeCharacter(5, (1, 1, 1, 1)),
}


@pytest.mark.parametrize("name", PLANNED_SOURCES)
def test_planned_tables_are_the_tables_built(name, monkeypatch):
    # the plan checks against the table bound exactly the (p, f) whose
    # tables the factors then build: no table unchecked, no check wasted.
    # make_field checks its own table again; each check is filed by caller
    import sys

    import cyarith.tables as tables

    checked = {"check_tables": [], "make_field": []}
    real = tables.check_table

    def check_table(p, f):
        checked[sys._getframe(1).f_code.co_name].append((p, f))
        return real(p, f)

    monkeypatch.setattr(tables, "check_table", check_table)
    built = _count_make_field(monkeypatch)
    dirichlet_coefficients(PLANNED_SOURCES[name], 3000)
    assert sorted(checked["check_tables"]) == sorted(built)
    assert checked["make_field"] == built


WEIL_VARIETIES = [(5, 5, 5, 5, 5), (3, 3, 3), (5, 5, 5), (4, 4, 4, 4), (2, 3, 6), (3, 3, 6, 6),
                  (12, 12, 12), (11, 11, 11)]


@pytest.mark.parametrize("exponents", WEIL_VARIETIES, ids=lambda e: ",".join(map(str, e)))
def test_weil_factorisation_head_by_head(exponents):
    # match compares expanded coefficients alone; here each Galois head's
    # sum equals that of match's Hecke-side row, which drops the head's first
    # character where the head drops its last, at split primes served by the
    # closed form (conductors 3 and 5) and by the table kernel alike
    heads = galois_heads(exponents)
    rows = [(d, e[1:] + (-sum(e) % d,)) for d, e in heads]
    m = math.lcm(*exponents)
    for p in [p for p in range(m + 1, 1000, m) if is_prime(p)][:3]:
        assert unit_sums((p, 1), heads) == unit_sums((p, 1), rows), p


# (m, a) with sum(a) = 0 mod m (trivial character product, weight r - 2)
# and != 0 (weight r - 1), over conductors 2..12
HECKE_CHARACTERS = [
    (2, (1, 1)), (2, (1, 1, 1)), (3, (1, 1, 1)), (3, (1, 1)), (4, (1, 3)),
    (4, (1, 1)), (5, (1, 1, 1, 1)), (5, (1, 4)), (5, (2, 2, 3, 3)),
    (7, (1, 2, 4)), (6, (1, 1, 1)), (8, (1, 3, 4)), (12, (1, 5, 6)),
]


@pytest.mark.parametrize("m,a", HECKE_CHARACTERS)
def test_hecke_local_factor_invariants(m, a):
    chi = HeckeCharacter(m, a)
    coeffs = dirichlet_coefficients(chi, 100)
    for p in range(3, 101):
        if not is_prime(p) or (p - 1) % m:
            continue
        lf = chi.local_factor(p)
        assert len(lf.coeffs) == euler_phi(m) + 1 and all(type(c) is int for c in lf.coeffs)
        assert coeffs.a(p) == -lf.coeffs[1]
        sums = [ideal_jacobi_sum(i, chi.a) for i in split_prime_ideals(p, m)]
        assert Counter(class_roots(lf.classes)) == Counter((j, 1) for j in sums)
        assert expand_roots_direct([(j, 1) for j in sums], None) == lf.coeffs
        assert all(j * j.conj() == CycInt.from_int(j.m, p ** chi.weight)
                   for j in sums), (p, chi.weight)
        assert lf.sign in (1, -1)

def _trial_division(n):
    factors, d = {}, 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_assemble_matches_trial_division(seed):
    # random series at about 3 primes in 4; an absent prime kills a_n
    rng = random.Random(seed)
    cutoff = 2000
    series = {}
    for p in filter(is_prime, range(2, cutoff + 1)):
        if rng.random() < 0.75:
            k_max = int(math.log(cutoff, p) + 1e-9)
            series[p] = [1] + [rng.randint(-9, 9) for _ in range(k_max)]
    values = _assemble(_smallest_prime_factors(cutoff), series)
    assert len(values) == cutoff and values[0] == 1
    for n in range(2, cutoff + 1):
        expected = 1
        for p, e in _trial_division(n).items():
            expected *= series[p][e] if p in series else 0
        assert values[n - 1] == expected, n


def test_partial_sums(quintic):
    coeffs = dirichlet_coefficients(quintic, 100)
    res = partial_sum_eval(coeffs, 3.5)
    assert res.value == pytest.approx(0.6478209905786246, rel=1e-12)
    assert res.tail_bound == pytest.approx(3.4632674297606663, rel=1e-9)
    with pytest.raises(ValidationError):
        partial_sum_eval(coeffs, 2.5)         # at the convergence edge
    for s in (math.nan, math.inf):
        with pytest.raises(ValidationError):
            partial_sum_eval(coeffs, s)
    res26 = partial_sum_eval(coeffs, 2.6)
    assert math.isinf(res26.tail_bound)       # converges, bound model does not


@pytest.mark.parametrize("source", [DiagonalVariety.fermat(5, 3), HeckeCharacter(5, (1, 1, 1, 1))],
                         ids=["quintic", "5;1,1,1,1"])
def test_one_plan_builds_every_factor_from_rows(source, monkeypatch):
    # either source is read as its Galois-class rows, and each planned prime's
    # factor is one galois_factor call: no per-source factor path is taken
    import cyarith.hecke as hecke

    expected = dirichlet_coefficients(source, 500)
    built, real = [], hecke.galois_factor

    def counted(p, *args):
        built.append(p)
        return real(p, *args)

    def refused(*args):
        raise AssertionError("a per-source factor path was taken")

    monkeypatch.setattr(hecke, "galois_factor", counted)
    monkeypatch.setattr(hecke, "local_factor_middle", refused)
    monkeypatch.setattr(HeckeCharacter, "local_factor", refused)
    coeffs = dirichlet_coefficients(source, 500)
    assert coeffs.values == expected.values
    assert built == list(coeffs.included_primes) == list(expected.included_primes)
