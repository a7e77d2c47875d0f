"""Jacobi sums: direct-definition oracle, Galois equivariance, Weil bound."""

import math

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import cyarith.charsum as charsum
import cyarith.counting as counting
from cyarith import (AlphaTuple, CycInt, DiagonalVariety, FieldTable, build_alpha_set,
                     euler_phi, full_alpha_set, jacobi_sum, make_field)
from cyarith.charsum import (dlog_pair_table, galois_class_head, jacobi_sums, ord_m,
                             unit_sums)
from cyarith.errors import BadReductionError, InvariantViolationError, ValidationError
from cyarith.ffield import is_prime
from cyarith.hecke import HeckeCharacter, match_hasse_weil
from cyarith.zeta import local_factor_middle
from oracles import (DIRECT_SUM_BUDGET, jacobi_sum_direct, jacobi_sums_per_alpha,
                     unit_sums_per_row, with_generator)


def test_alpha_tuple_validation():
    with pytest.raises(ValidationError):
        AlphaTuple((0, 1, 4), 5)           # zero entry
    with pytest.raises(ValidationError):
        AlphaTuple((1, 1, 1), 5)           # sum not integral
    a = AlphaTuple((1, 1, 1, 1, 1), 5)
    assert a.conductor == 5
    assert a.conjugate().nums == (4, 4, 4, 4, 4)


def test_ord_m():
    assert [ord_m(p, 5) for p in (2, 3, 4, 11, 19)] == [4, 4, 2, 1, 2]
    assert ord_m(7, 1) == 1
    for p, m in ((2, 6), (3, 3), (5, 10)):
        with pytest.raises(ValidationError, match="not prime to"):
            ord_m(p, m)


def test_alpha_set_sizes(quintic):
    # (d-1 choose s+1)-style count: 204 interior lattice points for the quintic
    aset = full_alpha_set(quintic, 11)
    assert len(aset.tuples) == 204
    # p = 11 is 1 mod 5: Frobenius acts trivially, all orbits singletons
    assert all(len(o) == 1 for o in aset.orbits)
    aset2 = full_alpha_set(quintic, 2)
    assert len(aset2.tuples) == 204
    assert sorted({len(o) for o in aset2.orbits}) == [4]
    assert len(aset2.orbits) == 51


def test_full_alpha_set_tests_primality_once(quintic, monkeypatch):
    # every module that binds is_prime counts into one list
    calls = []

    def counted(n):
        calls.append(n)
        return is_prime(n)

    for module in (charsum, counting):
        monkeypatch.setattr(module, "is_prime", counted)
    full_alpha_set(quintic, 11)
    assert calls == [11]
    with pytest.raises(BadReductionError, match="5 divides an exponent of"):
        full_alpha_set(quintic, 5)
    with pytest.raises(ValidationError, match="9 is not prime"):
        full_alpha_set(quintic, 9)
    assert calls == [11, 5, 9]


def test_orbit_partition_built_once_per_residue(quintic):
    # p acts on the degree set through p mod lcm(exponents) = p mod 5 alone
    assert full_alpha_set(quintic, 11) is full_alpha_set(quintic, 31)
    assert full_alpha_set(quintic, 2) is full_alpha_set(quintic, 7)
    for p in (2, 3, 13, 29, 11):
        for orbit in full_alpha_set(quintic, p).orbits:
            head = orbit[0].nums
            assert [a.nums for a in orbit] == [tuple(n * p ** k % 5 for n in head)
                                               for k in range(len(orbit))]
    v = DiagonalVariety((3, 6, 6))           # build_alpha_set reduces by its own orders
    assert build_alpha_set(v, 7) is build_alpha_set(v, 13)
    assert build_alpha_set(v, 5, 2) is build_alpha_set(v, 11, 2)
    assert build_alpha_set(v, 5, 2) is not build_alpha_set(v, 7)


def test_alpha_set_cubic():
    cubic = DiagonalVariety.fermat(3, 1)
    aset = full_alpha_set(cubic, 7)
    assert [a.nums for a in aset.tuples] == [(1, 1, 1), (2, 2, 2)]


def test_build_alpha_set_respects_field_orders():
    # over F_2 itself every character is trivial; the degree set must be empty
    v = DiagonalVariety.fermat(3, 1)
    aset = build_alpha_set(v, 2)
    assert aset.tuples == ()
    # over F_4 the full cubic set reappears
    aset4 = build_alpha_set(v, 2, 2)
    assert len(aset4.tuples) == 2


@pytest.mark.parametrize("exps,p,r", [
    ((3, 3, 3), 7, 1),
    ((3, 3, 3), 13, 1),
    ((4, 4, 4, 4), 5, 1),
    ((5, 5, 5, 5, 5), 11, 1),
    ((3, 3, 3), 2, 2),
    ((2, 3, 6), 7, 1),
])
def test_histogram_sum_matches_direct_definition(exps, p, r):
    v = DiagonalVariety(exps)
    f = make_field(p, r)
    aset = build_alpha_set(v, p, r)
    for a in aset.tuples[:40]:
        assert jacobi_sum((p, r), a) == jacobi_sum_direct(f, a)


def test_generator_independence(quintic):
    # switching generators Galois-twists individual sums but permutes the
    # alpha labels along with them: the multiset over A is an invariant
    from collections import Counter

    f, tuples = make_field(11), full_alpha_set(quintic, 11).tuples
    reference = Counter(j.coeffs for j in jacobi_sums((11, 1), tuples))
    for k, g in ((3, 8), (7, 7), (9, 6)):          # g = 2^k mod 11
        other = with_generator(f, k)
        assert other.g == g and all(other.exp[other.dlog[x]] == x for x in range(1, 11))
        assert Counter(j.coeffs for j in jacobi_sums_per_alpha(other, tuples)) == reference


def test_conjugation_equivariance(quintic):
    for a in full_alpha_set(quintic, 11).tuples[:30]:
        assert jacobi_sum((11, 1), a.conjugate()) == jacobi_sum((11, 1), a).conj()


def test_weil_bound_exact(quintic):
    q = 11
    for a in full_alpha_set(quintic, 11).tuples[:30]:
        j = jacobi_sum((q, 1), a)
        assert j * j.conj() == CycInt.from_int(j.m, q ** (len(a.nums) - 2))


def test_known_cubic_value():
    # J(chi, chi, chi) for the cubic at p = 7 embeds near 1 - 3*omega-ish;
    # pin the exact trace: j + conj(j) = 1 here
    j = jacobi_sum((7, 1), AlphaTuple((1, 1, 1), 3))
    assert (j + j.conj()).rational_value() == 1
    assert j * j.conj() == CycInt.from_int(3, 7)


# prime and extension fields, p = 2 included, small enough that the direct
# oracle covers five coordinates; exponents are drawn among 2..6 with a
# nontrivial character of that order over the field, so m = 2 entries occur
# whenever q is odd
ORACLE_FIELDS = [(2, 2), (2, 4), (3, 2), (5, 1), (7, 1), (13, 1), (5, 2)]


@settings(max_examples=60, deadline=None)
@given(field=st.sampled_from(ORACLE_FIELDS), data=st.data())
def test_kernel_matches_direct_oracle(field, data):
    f = make_field(*field)
    usable = [n for n in range(2, 7) if math.gcd(n, f.q - 1) > 1]
    exps = data.draw(st.lists(st.sampled_from(usable), min_size=3, max_size=5))
    aset = build_alpha_set(DiagonalVariety(tuple(exps)), *field)
    assume(aset.tuples)
    a = data.draw(st.sampled_from(aset.tuples))
    assert (f.q - 1) ** (len(exps) - 1) <= DIRECT_SUM_BUDGET
    assert jacobi_sum(field, a) == jacobi_sum_direct(f, a)


@pytest.mark.parametrize("p,r", [(2, 4), (3, 2), (11, 1)])
def test_pair_table_marginals(p, r):
    f = make_field(p, r)
    table = dlog_pair_table(f, f.q - 1)
    assert int(table.sum()) == f.q - 2
    # every v outside {0, 1} lands once, and 1 - v is never 0 or 1
    assert table.max() == 1
    with pytest.raises(ValidationError):
        dlog_pair_table(f, f.q)
    bad = f.zech.copy()
    bad[1] = bad[2]                        # two v with one value of 1 - v
    with pytest.raises(InvariantViolationError):
        dlog_pair_table(FieldTable(p=f.p, r=f.r, q=f.q, modulus=f.modulus, g=f.g,
                                   dlog=f.dlog, exp=f.exp, zech=bad), f.q - 1)


# -- one kernel row per Galois class against one row per tuple -------------------

# p = 2 and extension fields among them; q - 1 has factors 5 or 7 on most, so
# the units mod den include l != l^-1 and a swapped Galois index shows
CLASS_FIELDS = [(2, 2), (2, 3), (2, 4), (2, 6), (3, 2), (5, 2), (7, 1), (7, 2),
                (11, 1), (13, 1), (29, 1), (31, 1), (43, 1)]


@st.composite
def _field_and_exponents(draw):
    """A field and 3-5 exponents in 2..7, each with a nontrivial character
    of its order over that field."""
    field = draw(st.sampled_from(CLASS_FIELDS))
    q = field[0] ** field[1]
    usable = [n for n in range(2, 8) if math.gcd(n, q - 1) > 1]
    return field, draw(st.lists(st.sampled_from(usable), min_size=3, max_size=5))


@settings(max_examples=60, deadline=None)
@given(case=_field_and_exponents(), data=st.data())
@example(case=((11, 1), [5] * 5), data=None)      # quintic, split
@example(case=((2, 4), [5] * 5), data=None)       # quintic, p = 2
@example(case=((7, 1), [2, 3, 6]), data=None)     # non-Fermat
@example(case=((3, 2), [2, 2, 2, 2]), data=None)  # quadric
def test_jacobi_sums_match_per_alpha_oracle(case, data):
    field, exps = case
    f = make_field(*field)
    tuples = build_alpha_set(DiagonalVariety(tuple(exps)), *field).tuples
    assume(tuples)
    # the whole set, element by element: a multiset comparison would not see
    # sigma_l put where sigma_{l^-1} belongs
    assert jacobi_sums(field, tuples) == jacobi_sums_per_alpha(f, tuples)
    if data is None:
        return
    # duplicates, conjugate pairs and shuffled order in one request
    picked = data.draw(st.lists(st.sampled_from(tuples), min_size=1, max_size=10))
    alphas = data.draw(st.permutations(picked + picked[:3]
                                       + [a.conjugate() for a in picked[::2]]))
    assert jacobi_sums(field, alphas) == jacobi_sums_per_alpha(f, alphas)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 42), data=st.data())
def test_galois_class_head(m, data):
    units = [l for l in range(1, m + 1) if math.gcd(l, m) == 1]
    exps = tuple(data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=5)))
    (m_head, head), l_inv = galois_class_head((m, exps))
    assert m_head == m
    assert tuple(e * l_inv % m for e in head) == exps
    assert head == min(tuple(e * l % m for e in exps) for l in units)
    assert all(galois_class_head((m, tuple(e * l % m for e in exps)))[0] == (m, head)
               for l in units)


@pytest.mark.parametrize("exps, classes", [((5,) * 5, 51), ((3, 3, 6, 6), 9),
                                            ((4, 4, 4, 4), 11)])
def test_galois_heads_are_the_class_heads(exps, classes):
    # one head per Galois class, whose row is the class's galois_class_head;
    # the classes of conductor d have phi(d) tuples and cover the degree set
    heads = charsum.galois_heads(exps)
    tuples = full_alpha_set(DiagonalVariety(exps), 7).tuples
    assert len(heads) == classes
    assert all(galois_class_head(charsum._row(a))[0] == charsum._row(a) for a in heads)
    assert sum(euler_phi(a.conductor) for a in heads) == len(tuples)
    assert {galois_class_head(charsum._row(a))[0] for a in tuples} == set(map(charsum._row, heads))


def test_galois_heads_refuse_a_class_short_of_phi(monkeypatch):
    # the closure check: a degree set missing one tuple leaves its class
    # with phi(5) - 1 = 3 tuples
    real = charsum._enumerate_tuples
    monkeypatch.setattr(charsum, "_enumerate_tuples", lambda orders: real(orders)[1:])
    with pytest.raises(InvariantViolationError, match=r"has 3 tuples, not phi\(5\) = 4"):
        charsum.galois_heads.__wrapped__((5,) * 5)     # bypassing the memo


@st.composite
def _field_and_rows(draw):
    """A field and unit_sums rows over moduli dividing q-1: zero entries,
    duplicate rows and rows scaled by units mod m."""
    field = draw(st.sampled_from(CLASS_FIELDS))
    q = field[0] ** field[1]
    moduli = [m for m in range(1, 44) if (q - 1) % m == 0]
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        m = draw(st.sampled_from(moduli))
        exps = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=4))
        rows.append((m, exps))
    for m, exps in draw(st.lists(st.sampled_from(rows), max_size=4)):
        l = draw(st.sampled_from([l for l in range(1, m + 1) if math.gcd(l, m) == 1]))
        rows.append((m, [e * l % m for e in exps]))
    return field, draw(st.permutations(rows + rows[:2]))


@settings(max_examples=60, deadline=None)
@given(case=_field_and_rows())
@example(case=((2, 4), [(5, [1, 1, 1, 1]), (5, [2, 2, 2, 2]), (3, [0, 1])]))
@example(case=((11, 1), [(5, [0, 0]), (5, [3, 4, 1]), (5, [1, 3, 2]), (1, [0, 0])]))
def test_unit_sums_match_per_row_oracle(case):
    field, rows = case
    f = make_field(*field)
    assert unit_sums(field, rows) == unit_sums_per_row(f, rows)


def test_one_kernel_row_per_galois_class(quintic, monkeypatch):
    # one evaluation per Galois class, by the kernel or, at a prime of
    # conductor 5, by the closed form
    import cyarith.charsum as charsum

    lf = local_factor_middle(quintic, 11)
    calls = []

    def counting(real):
        def wrapped(*args):
            calls.append(args)
            return real(*args)
        return wrapped

    for name in ("_unit_sum", "_closed_sum"):
        monkeypatch.setattr(charsum, name, counting(getattr(charsum, name)))
    tuples = full_alpha_set(quintic, 11).tuples
    sums = jacobi_sums((11, 1), tuples)
    assert len(sums) == 204 and len(calls) == 51
    calls.clear()
    # 4 ideals x 51 class representatives, one Galois class per representative
    assert match_hasse_weil(quintic, 11, lf).multiset_size == 204
    assert len(calls) == 51
    calls.clear()
    # the 4 ideals above 11 are conjugate: one class
    HeckeCharacter(5, (1, 1, 1, 1)).local_factor(11)
    assert len(calls) == 1
    calls.clear()
    # at p = 2, inert mod 5, the closed form takes every class: 51 heads over F_16
    jacobi_sums((2, 4), tuples)
    assert len(calls) == 51
