"""Jacobi sums of prime conductor in closed form (Stickelberger's
factorisation) against the table kernel: ideal sums of every rank 1-4 over
every ideal, the zeta-side sums of the degree sets, rows over F_{p^r} at
split and non-split primes, and the exact checks on pi."""

import pytest
from hypothesis import example, given, settings, strategies as st

import cyarith.charsum as charsum
import cyarith.tables as tables
from cyarith import CycInt, is_prime, make_field
from cyarith.charsum import (STICKELBERGER_CONDUCTORS, degree_set, galois_class_head,
                             in_closed_form, jacobi_sum, jacobi_sums, ord_m, unit_sums)
from cyarith.cyclo import GroupRingElement
from cyarith.errors import InvariantViolationError
from cyarith.ffield import primitive_root
from cyarith.zeta import local_factor_middle
from oracles import (SplitPrimeIdeal, ideal_jacobi_sum, ideal_jacobi_sums,
                     jacobi_sums_per_alpha, split_prime_ideals, unit_sums_per_row)

SPLIT_PRIMES = {l: [p for p in range(3, 2001) if is_prime(p) and p % l == 1]
                for l in sorted(STICKELBERGER_CONDUCTORS)}


def _kernel_heads(monkeypatch):
    """The class heads that reach the table kernel from here on."""
    heads = []
    real = tables.kernel_sums

    def spying(p, r, kernel):
        heads.extend(kernel)
        return real(p, r, kernel)

    monkeypatch.setattr(tables, "kernel_sums", spying)
    return heads


@st.composite
def _split_prime_and_vectors(draw):
    l = draw(st.sampled_from(sorted(SPLIT_PRIMES)))
    p = draw(st.sampled_from(SPLIT_PRIMES[l]))
    vector = st.lists(st.integers(1, l - 1), min_size=1, max_size=4).map(tuple)
    return l, p, draw(st.lists(vector, min_size=1, max_size=6))


@settings(max_examples=80, deadline=None)
@given(_split_prime_and_vectors())
def test_ideal_sums_match_kernel(case):
    # every ideal above p; a vector with sum(a) = 0 mod l has no closed form
    # and must reach the kernel, the others must not
    l, p, vectors = case
    ideals = split_prime_ideals(p, l)
    rows = [(l, [x * i.tau_inv % l for x in a]) for i in ideals for a in vectors]
    kernel = unit_sums_per_row(make_field(p), rows)
    with pytest.MonkeyPatch.context() as mp:
        heads = _kernel_heads(mp)
        got = ideal_jacobi_sums(ideals, vectors)
    assert got == [(-1) ** (len(e) + 1) * j for (_, e), j in zip(rows, kernel)]
    assert set(heads) == {galois_class_head((l, a))[0] for a in vectors if sum(a) % l == 0}
    assert all(in_closed_form(p, 1, l, a) == (sum(a) % l != 0) for a in vectors)


@settings(max_examples=30, deadline=None)
@given(exps=st.sampled_from([(5,) * 5, (3, 3, 3), (7, 7, 7)]), data=st.data())
def test_zeta_side_matches_kernel(exps, data):
    # the degree-set row (l, e) of a tuple is (-1)^(r+1) J_e(P_c) at the
    # ideal labelled c = g^((p-1)/l), g the smallest primitive root
    l = exps[0]
    p = data.draw(st.sampled_from(SPLIT_PRIMES[l]))
    tuples = degree_set(exps)
    with pytest.MonkeyPatch.context() as mp:
        heads = _kernel_heads(mp)
        sums = jacobi_sums((p, 1), tuples)
    assert heads == []
    assert sums == jacobi_sums_per_alpha(make_field(p), tuples)
    ideal = SplitPrimeIdeal(p, l, pow(primitive_root(p), (p - 1) // l, p))
    for t in data.draw(st.lists(st.sampled_from(tuples), min_size=1, max_size=5)):
        e = tuple(l * n // t.den for n in t.nums[:-1])
        assert ideal_jacobi_sum(ideal, e) == (-1) ** (len(e) + 1) * jacobi_sum((p, 1), t)


# (p, r) with r in {f, 2f}, f = ord_l(p), by (l, f); q = p^r kept small for
# the oracle's table
UNRAMIFIED_FIELDS: dict[tuple[int, int], list[tuple[int, int]]] = {}
for _l in sorted(STICKELBERGER_CONDUCTORS):
    for _p in filter(is_prime, range(2, 400)):
        if _p != _l:
            _f = ord_m(_p, _l)
            UNRAMIFIED_FIELDS.setdefault((_l, _f), []).extend(
                (_p, r) for r in (_f, 2 * _f) if _p ** r <= 1 << 17)


@st.composite
def _unramified_field_and_vectors(draw):
    l, f = draw(st.sampled_from(sorted(UNRAMIFIED_FIELDS)))
    p, r = draw(st.sampled_from(UNRAMIFIED_FIELDS[l, f]))
    vector = st.lists(st.integers(1, l - 1), min_size=1, max_size=4).map(tuple)
    return l, p, r, draw(st.lists(vector, min_size=1, max_size=5))


@settings(max_examples=80, deadline=None)
@given(_unramified_field_and_vectors())
@example((3, 2, 2, [(1, 1), (2,)]))
@example((3, 2, 4, [(1, 1, 1), (1, 2)]))
@example((5, 2, 4, [(1, 2, 3), (1, 1, 1, 1)]))
@example((5, 2, 8, [(1, 1, 1, 1), (2, 3, 4)]))
@example((7, 2, 3, [(1, 2, 4), (3, 3)]))
@example((7, 2, 6, [(1, 1, 1), (1, 6)]))
@example((7, 3, 12, [(1, 2, 3)]))               # (l, f) = (7, 6) at r = 2f
def test_closed_form_matches_kernel_over_extensions(case):
    # every (l, f) at r = f and r = 2f, so r = 2 at a split p, with p = 2
    # among the examples; a row in closed form never reaches the kernel
    l, p, r, vectors = case
    rows = [(l, e) for e in vectors]
    with pytest.MonkeyPatch.context() as mp:
        heads = _kernel_heads(mp)
        got = unit_sums((p, r), rows)
    assert got == unit_sums_per_row(make_field(p, r), rows)
    assert set(heads) == {galois_class_head((l, e))[0] for e in vectors if sum(e) % l == 0}
    assert all(in_closed_form(p, r, l, e) == (sum(e) % l != 0) for e in vectors)
    # r + 1 is a multiple of f only when f = 1
    assert in_closed_form(p, r + 1, l, (1,)) == (ord_m(p, l) == 1)


def test_stickelberger_element_built_once_per_head(quintic, monkeypatch):
    # the quintic's 51 class heads recur at every prime, all in closed form:
    # 8 primes build each S(a) once, not 8 times
    built = []
    real = charsum.s_element

    def counted(exps, m):
        built.append((m, tuple(exps)))
        return real(exps, m)

    monkeypatch.setattr(charsum, "s_element", counted)
    charsum._stickelberger_element.cache_clear()
    for p in (2, 3, 11, 31, 41, 61, 71, 101):
        local_factor_middle(quintic, p)
    assert len(built) == len(set(built)) == 51


def test_split_prime_checks(monkeypatch):
    # pi is checked for norm +-p^f, for lying in P_c, and pi^theta for being
    # +-1 mod (1 - xi); each failure raises.  11 splits mod 5, and 2 is inert
    p, r, l, exps = 11, 1, 5, [1, 1, 1, 1]

    def fresh(p=p, r=r):
        charsum._split_prime.cache_clear()
        charsum._stickelberger_element.cache_clear()
        return charsum._closed_sum(p, r, l, exps, {})

    good, inert = fresh(), fresh(2, 4)
    real_gcd = charsum.cyclotomic_gcd
    for wrong, message in ((lambda a, b: real_gcd(a, b) * (1 - CycInt.root(l)), "has norm"),
                           (lambda a, b: real_gcd(a, b).galois(2), "is not in P_c")):
        monkeypatch.setattr(charsum, "cyclotomic_gcd", wrong)
        with pytest.raises(InvariantViolationError, match=message):
            fresh()
    monkeypatch.undo()

    class Doubled(CycInt):      # the inert pi = p becomes p * (1 - xi)
        @classmethod
        def from_int(cls, m, n):
            return CycInt.from_int(m, n) * (1 - CycInt.root(m))

    monkeypatch.setattr(charsum, "CycInt", Doubled)
    with pytest.raises(InvariantViolationError, match="has norm 80, not \\+-2\\^4"):
        fresh(2, 4)
    monkeypatch.undo()
    # pi = -1 - 2 xi + xi^3 = 3 mod (1 - xi): beta = pi alone has no unit eps
    assert charsum._split_prime(p, r, l)[0] == CycInt(l, (-1, -2, 0, 1))
    # n_1 = 1 and n_2 = n_3 = n_4 = 0, read at -t mod 5
    monkeypatch.setattr(charsum, "s_element",
                        lambda exps, m: GroupRingElement(m, ((1, 0), (2, 0), (3, 0), (4, 1))))
    with pytest.raises(InvariantViolationError, match="not \\+-1 mod"):
        fresh()
    monkeypatch.undo()
    assert fresh() == good and fresh(2, 4) == inert
