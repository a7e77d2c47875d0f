"""Jacobi sums: direct-definition oracle, Galois equivariance, Weil bound."""

import math

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import cyarith.charsum as charsum
from cyarith import (AlphaTuple, CycInt, DiagonalVariety, FieldTable, count_affine, euler_phi,
                     jacobi_sum, make_field)
from cyarith.charsum import (degree_set, frobenius_heads, galois_class_head, jacobi_sums, ord_m,
                             unit_sums)
from cyarith.errors import InvariantViolationError, ValidationError
from cyarith.tables import dlog_pair_table
from cyarith.hecke import HeckeCharacter, match_hasse_weil
from cyarith.zeta import local_factor_middle
from oracles import (DIRECT_ENUM_BUDGET, DIRECT_SUM_BUDGET, count_affine_direct,
                     frobenius_orbits, jacobi_sum_direct, jacobi_sums_per_alpha,
                     unit_sums_per_row, with_generator)


def field_set(exps, p, r=1):
    """The degree set over F_q, q = p^r: orders l_i = gcd(n_i, q-1)."""
    return degree_set(tuple(math.gcd(n, p**r - 1) for n in exps))


def test_alpha_tuple_validation():
    with pytest.raises(ValidationError):
        AlphaTuple((0, 1, 4), 5)           # zero entry
    with pytest.raises(ValidationError):
        AlphaTuple((1, 1, 1), 5)           # sum not integral
    a = AlphaTuple((1, 1, 1, 1, 1), 5)
    assert a.conductor == 5


def test_ord_m():
    assert [ord_m(p, 5) for p in (2, 3, 4, 11, 19)] == [4, 4, 2, 1, 2]
    assert ord_m(7, 1) == 1
    for p, m in ((2, 6), (3, 3), (5, 10)):
        with pytest.raises(ValidationError, match="not prime to"):
            ord_m(p, m)


def test_alpha_set_sizes(quintic):
    # (d-1 choose s+1)-style count: 204 interior lattice points for the quintic
    tuples = degree_set(quintic.exponents)
    assert len(tuples) == 204
    # p = 11 is 1 mod 5: Frobenius acts trivially, every tuple heads its orbit
    assert frobenius_heads(quintic.exponents, 11) == tuples
    # p = 2 has order 4 mod 5: 51 orbits of length 4
    heads = frobenius_heads(quintic.exponents, 2)
    assert len(heads) == 51
    orbits = frobenius_orbits(quintic, 2)
    assert [o[0] for o in orbits] == list(heads) and {len(o) for o in orbits} == {4}
    with pytest.raises(ValidationError, match="not prime to"):
        frobenius_heads(quintic.exponents, 5)


def test_alpha_set_cubic():
    assert [a.nums for a in degree_set((3, 3, 3))] == [(1, 1, 1), (2, 2, 2)]


def test_degree_set_respects_field_orders():
    # over F_2 itself every character is trivial; the degree set must be empty
    assert field_set((3, 3, 3), 2) == ()
    # over F_4 the full cubic set reappears
    assert field_set((3, 3, 3), 2, 2) == degree_set((3, 3, 3))


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
    for a in field_set(v.exponents, p, r)[:40]:
        assert jacobi_sum((p, r), a) == jacobi_sum_direct(f, a)


def test_generator_independence(quintic):
    # switching generators Galois-twists individual sums but permutes the
    # alpha labels along with them: the multiset over A is an invariant
    from collections import Counter

    f, tuples = make_field(11), degree_set(quintic.exponents)
    reference = Counter(j.coeffs for j in jacobi_sums((11, 1), tuples))
    for k, g in ((3, 8), (7, 7), (9, 6)):          # g = 2^k mod 11
        other = with_generator(f, k)
        assert other.g == g and all(other.exp[other.dlog[x]] == x for x in range(1, 11))
        assert Counter(j.coeffs for j in jacobi_sums_per_alpha(other, tuples)) == reference


def _conjugate(a):
    """The tuple of the conjugate characters, 1 - alpha_i entrywise."""
    return AlphaTuple(tuple(a.den - n for n in a.nums), a.den)


def test_conjugation_equivariance(quintic):
    for a in degree_set(quintic.exponents)[:30]:
        assert jacobi_sum((11, 1), _conjugate(a)) == jacobi_sum((11, 1), a).conj()


def test_weil_bound_exact(quintic):
    q = 11
    for a in degree_set(quintic.exponents)[:30]:
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
    tuples = field_set(exps, *field)
    assume(tuples)
    a = data.draw(st.sampled_from(tuples))
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
    tuples = field_set(exps, *field)
    assume(tuples)
    # the whole set, element by element: a multiset comparison would not see
    # sigma_l put where sigma_{l^-1} belongs
    assert jacobi_sums(field, tuples) == jacobi_sums_per_alpha(f, tuples)
    if data is None:
        return
    # duplicates, conjugate pairs and shuffled order in one request
    picked = data.draw(st.lists(st.sampled_from(tuples), min_size=1, max_size=10))
    alphas = data.draw(st.permutations(picked + picked[:3]
                                       + [_conjugate(a) for a in picked[::2]]))
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
    # one row per Galois class, the class's galois_class_head, of the
    # tuple's conductor d; the classes have phi(d) tuples and cover the
    # degree set
    heads = charsum.galois_heads(exps)
    tuples = degree_set(exps)
    assert len(heads) == len(set(heads)) == classes
    assert all(galois_class_head(row)[0] == row for row in heads)
    assert {d for d, _ in heads} == {a.conductor for a in tuples}
    assert sum(euler_phi(d) for d, _ in heads) == len(tuples)
    assert {galois_class_head(charsum._row(a))[0] for a in tuples} == set(heads)


def test_galois_heads_refuse_a_class_short_of_phi(monkeypatch):
    # the closure check: a degree set missing one tuple leaves its class
    # with phi(5) - 1 = 3 tuples
    real = charsum.degree_set
    monkeypatch.setattr(charsum, "degree_set", lambda orders: real(orders)[1:])
    with pytest.raises(InvariantViolationError, match=r"has 3 tuples, not phi\(5\) = 4"):
        charsum.galois_heads.__wrapped__((5,) * 5)     # bypassing the memo


# fields whose affine grid in 3 coordinates fits the enumeration budget:
# r = 1, 2, 3 and p = 2 among them
COUNT_FIELDS = [(p, r) for p in (2, 3, 5, 7, 11, 13) for r in (1, 2, 3)
                if p ** (3 * r) <= DIRECT_ENUM_BUDGET]


@st.composite
def _count_case(draw):
    """A field of COUNT_FIELDS and 3-5 exponents in 2..6, as many as its
    grid allows."""
    p, r = draw(st.sampled_from(COUNT_FIELDS))
    width = max(k for k in (3, 4, 5) if p ** (k * r) <= DIRECT_ENUM_BUDGET)
    return (p, r), tuple(draw(st.lists(st.integers(2, 6), min_size=3, max_size=width)))


@settings(max_examples=40, deadline=None)
@given(case=_count_case())
@example(case=((2, 1), (5,) * 5))       # the quintic: 51 orbits of length 4
@example(case=((3, 2), (3, 6, 2)))      # p divides exponents
@example(case=((2, 3), (3, 3, 3)))      # r = 3 at p = 2
def test_frobenius_heads_and_counts_match_oracles(case):
    # one enumeration serves the orbits and the counts: the least tuple of
    # each orbit is the oracle's first, and the traces of the Galois-class
    # heads' sums give the affine count of the grid
    (p, r), exps = case
    v = DiagonalVariety(exps)
    if all(n % p for n in exps):
        assert frobenius_heads(exps, p) == tuple(o[0] for o in frobenius_orbits(v, p))
    assert count_affine(v, p, r) == count_affine_direct(v, make_field(p, r))


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
    import cyarith.tables as tables

    lf = local_factor_middle(quintic, 11)
    calls = []

    def counting(real):
        def wrapped(*args):
            calls.append(args)
            return real(*args)
        return wrapped

    for module, name in ((tables, "_unit_sum"), (charsum, "_closed_sum")):
        monkeypatch.setattr(module, name, counting(getattr(module, name)))
    tuples = degree_set(quintic.exponents)
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
