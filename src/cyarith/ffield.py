"""Tabulated finite fields F_q, q = p^r, with canonical generator and dlog table.

Every field, prime or not, is F_p[x] modulo a monic irreducible of degree r
(x itself when r = 1).  Element index i encodes the coefficient vector of the
residue polynomial in base p, low degree first, so index = sum(c_j * p**j);
for a prime field the index is the residue itself.  This module is the only
one that knows that encoding: a table carries the multiplicative structure
(exp/dlog) and the one piece of additive structure the character sums read,
the Zech logarithms dlog(1 - g**e), so every sum downstream is a pure table
lookup.

A table costs O(q) numpy work and little else; numpy is imported by the
functions that build one, so code that needs no table never loads it.  One
size rule holds at every degree, stated by check_table: q <= TABLE_BOUND.
The modulus and generator need no table, and field_generator finds them far
beyond it (FACTOR_BOUND): the modulus by walking the monic candidates lazily
in lexicographic order, low degree first, each tested by Rabin's test, and
the generator by scanning element indices upward.  For a prime field that
scan is primitive_root, the same pow-based search that labels split primes;
for r > 1 each candidate is tested with Python ints, by square-and-multiply
on its residue polynomial.  From the same modulus and generator,
root_minimal_polynomial names the prime of Z[mu_m] that a character of
order m reduces modulo, for charsum's closed form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

from .errors import CapacityError, InvariantViolationError, PrimalityError, ValidationError

if TYPE_CHECKING:
    import numpy as np

TABLE_BOUND = 1 << 20   # the largest q = p^r that make_field tabulates, for every r
FACTOR_BOUND = 1 << 40  # the largest cyclotomic factor Phi_d(p) of q - 1 that
                        # field_generator factors, by trial division below 2^20


def is_prime(n: int) -> bool:
    """Deterministic trial division, adequate at the bounds enforced here."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


@lru_cache(maxsize=1 << 12)
def primitive_root(p: int) -> int:
    """The smallest g in 1..p-1 of multiplicative order p-1 modulo the prime
    p: no (p-1)/l-th power of it is 1 for a prime l | p-1.  This is
    make_field(p).g, found with pow and no table."""
    factors = prime_factors(p - 1)
    return next(g for g in range(1, p)
                if all(pow(g, (p - 1) // l, p) != 1 for l in factors))


@dataclass(frozen=True, eq=False)
class FieldTable:
    """A fully tabulated finite field.

    dlog[x] is the discrete logarithm of element index x base the canonical
    generator g (dlog[0] = -1 sentinel); exp[e] is the element index of g**e
    for e in 0..q-2; zech[e] = dlog(1 - g**e), so zech[0] = -1.  The arrays
    must be treated as read-only.
    """

    p: int
    r: int
    q: int
    modulus: tuple[int, ...]  # monic, coefficients low degree first, length r+1
    g: int
    dlog: np.ndarray
    exp: np.ndarray
    zech: np.ndarray


def dlog(f: FieldTable, x: int) -> int:
    """Discrete logarithm of x base the canonical generator; zero rejected."""
    if not 1 <= x < f.q:
        raise ValidationError(f"dlog undefined for element index {x}")
    return int(f.dlog[x])


# -- polynomial helpers over F_p (coefficients low degree first) ---------------


def poly_rem(a: list[int] | tuple[int, ...], b: tuple[int, ...], p: int) -> list[int]:
    """The r coefficients of a mod the monic b over F_p, r = deg b <= deg a,
    for integer coefficient lists, low degree first."""
    a = list(a)
    r = len(b) - 1
    for k in range(len(a) - 1, r - 1, -1):
        c = a[k] % p
        if c:
            for j in range(r):
                a[k - r + j] -= c * b[j]
    return [x % p for x in a[:r]]


def _poly_mulmod(a: list[int], b: list[int], modulus: tuple[int, ...], p: int) -> list[int]:
    """a * b modulo the monic modulus over F_p."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    return poly_rem(prod, modulus, p)


def _digits(i: int, p: int, r: int) -> list[int]:
    """Base-p digits of element index i, low degree first."""
    return [i // p**j % p for j in range(r)]


def _coprime(a: list[int], b: tuple[int, ...], p: int) -> bool:
    """Whether a and the nonzero b have no common factor of positive degree
    over F_p, by Euclid's algorithm on coefficient lists."""
    def trim(c):
        c = [x % p for x in c]
        while c and not c[-1]:
            c.pop()
        return c

    a, b = trim(b), trim(a)
    while b:
        inv = pow(b[-1], -1, p)
        for k in range(len(a) - 1, len(b) - 2, -1):
            top = a.pop() * inv % p
            for j in range(len(b) - 1):
                a[k - len(b) + 1 + j] -= top * b[j]
        a, b = b, trim(a)
    return len(a) == 1


def _is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    """Rabin's test (1980) for the monic poly of degree r over F_p:
    x^(p^r) = x mod poly, and x^(p^(r/d)) - x is prime to poly for every
    prime d | r.  The powers x^(p^i) are taken by repeated p-th powers."""
    r = len(poly) - 1
    if r == 1:
        return True
    x = [0, 1] + [0] * (r - 2)
    frob = [x]
    for _ in range(r):
        frob.append(_poly_pow(frob[-1], p, poly, p))
    return frob[r] == x and all(_coprime([u - v for u, v in zip(frob[r // d], x)], poly, p)
                                for d in prime_factors(r))


def _smallest_irreducible(p: int, r: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree r over F_p.

    Coefficient vectors are compared low degree first, so candidate n of the
    walk has c_0 as its most significant base-p digit.  For r > 1 the walk
    starts at c_0 = 1, since x divides every candidate with c_0 = 0; for
    r = 1 it starts, and stops, at x.
    """
    for n in range(p ** (r - 1) if r > 1 else 0, p**r):
        cand = tuple(n // p ** (r - 1 - j) % p for j in range(r)) + (1,)
        if _is_irreducible(cand, p):
            return cand
    raise InvariantViolationError(f"no irreducible of degree {r} over F_{p}")


def _poly_pow(a: list[int], n: int, modulus: tuple[int, ...], p: int) -> list[int]:
    """a**n modulo the modulus for n >= 1, by square-and-multiply on Python ints."""
    out = a
    for bit in bin(n)[3:]:
        out = _poly_mulmod(out, out, modulus, p)
        if bit == "1":
            out = _poly_mulmod(out, a, modulus, p)
    return out


def _generates(i: int, modulus: tuple[int, ...], p: int, q: int, factors: list[int]) -> bool:
    """True when the nonzero element index i has order q-1: for no prime
    l | q-1 is its (q-1)/l-th power 1."""
    r = len(modulus) - 1
    a, one = _digits(i, p, r), _digits(1, p, r)
    return all(_poly_pow(a, (q - 1) // l, modulus, p) != one for l in factors)


def _mul_matrix(a: int, modulus: tuple[int, ...], p: int) -> np.ndarray:
    """Matrix of y -> a*y on digit rows, a an element index:
    row(y) @ M = row(a*y) mod p.

    Row i holds the digits of a * x^i reduced by the monic modulus.
    """
    import numpy as np

    r = len(modulus) - 1
    low = np.array(modulus[:r], dtype=np.int64)
    m = np.zeros((r, r), dtype=np.int64)
    m[0] = _digits(a, p, r)
    for i in range(1, r):
        m[i, 1:] = m[i - 1, :-1]
        m[i] = (m[i] - m[i - 1, -1] * low) % p
    return m


def _exp_table(g: int, modulus: tuple[int, ...], p: int, q: int) -> np.ndarray:
    """Element indices of g^0 .. g^(q-2).

    Multiplication by g^n is an r x r matrix over F_p acting on digit rows,
    so the rows of g^n .. g^(2n-1) are those of g^0 .. g^(n-1) times the
    matrix of g^n: the table doubles in length per step.  Entries stay
    below p and a row-by-matrix product below r*p^2 < 2^63, so int64 is exact.
    The (q-1) x r rows are freed on return.
    """
    import numpy as np

    r = len(modulus) - 1
    rows = np.zeros((q - 1, r), dtype=np.int64)
    rows[0, 0] = 1
    step, n = _mul_matrix(g, modulus, p), 1
    while n < q - 1:
        k = min(n, q - 1 - n)
        block = rows[n:n + k]          # a view: the product is written in place
        np.einsum("ij,jk->ik", rows[:k], step, out=block)
        block %= p
        step, n = step @ step % p, n + k
    return np.einsum("ij,j->i", rows, p ** np.arange(r, dtype=np.int64))


def _minus_table(p: int, r: int) -> np.ndarray:
    """Element index of 1 - x at every element index x: each base-p digit
    is negated, and 1 is added to the constant digit."""
    import numpy as np

    minus = np.arange(p + 1, 1, -1)
    minus[:2] = 1, 0                              # 1 - c mod p
    for j in range(1, r):
        neg = np.arange(p, 0, -1) % p             # -c mod p
        minus = (neg[:, None] * p**j + minus).ravel()
    return minus


def field_order(p: int, r: int = 1) -> int:
    """q = p^r for a prime p and r >= 1, the check of every function that
    names a field by (p, r), whether or not it builds a table."""
    if not is_prime(p):
        raise PrimalityError(f"{p} is not prime")
    if r < 1:
        raise ValidationError("extension degree must be positive")
    return p**r


def _unit_group_factors(p: int, r: int) -> list[int]:
    """Distinct prime factors of q - 1 = p^r - 1, ascending, read off its
    cyclotomic factors Phi_d(p), d | r, each about p^phi(d) and factored by
    trial division.  CapacityError when one exceeds FACTOR_BOUND."""
    phi: dict[int, int] = {}
    for d in range(1, r + 1):
        if r % d == 0:
            phi[d] = (p**d - 1) // math.prod(v for e, v in phi.items() if d % e == 0)
            if phi[d] > FACTOR_BOUND:
                raise CapacityError(f"p={p} needs the prime factors of Phi_{d}({p}), beyond "
                                    f"the factoring bound {FACTOR_BOUND}, to find a "
                                    f"generator of F_{p**r} (degree {r})", degree=r)
    return sorted({l for v in phi.values() for l in prime_factors(v)})


@lru_cache(maxsize=1 << 10)
def field_generator(p: int, r: int = 1) -> tuple[tuple[int, ...], int]:
    """(modulus, g) of make_field(p, r), found with Python ints and no table,
    at any q = p^r whose cyclotomic factors Phi_d(p), d | r, are at most
    FACTOR_BOUND: every q <= TABLE_BOUND, and every r in 1..4 or 6 for p
    below about 10^6.  The modulus is the lexicographically smallest monic
    irreducible of degree r, coefficients compared low degree first (x when
    r = 1).  g is the smallest element index of order q-1:
    primitive_root(p) when r = 1.  For r > 1 the scan starts at p, the index
    of x: the indices below it are the constants, whose orders divide
    p-1 < q-1.  Each candidate must have no (q-1)/l-th power equal to 1 for
    any prime l | q-1; the powers are taken by square-and-multiply on the
    residue polynomial."""
    q = field_order(p, r)
    if r == 1:
        return _smallest_irreducible(p, 1), primitive_root(p)
    factors = _unit_group_factors(p, r)         # refuses before the irreducible walk
    modulus = _smallest_irreducible(p, r)
    return modulus, next(i for i in range(p, q) if _generates(i, modulus, p, q, factors))


def root_minimal_polynomial(p: int, r: int, m: int) -> tuple[int, ...]:
    """The monic minimal polynomial h over F_p, low degree first, of
    c = g^((q-1)/m) in F_q, where (modulus, g) = field_generator(p, r) and
    m | q - 1.  A character u -> xi_m^dlog_g(u) reduces to u -> u^((q-1)/m)
    modulo the prime (p, h(xi)) of Z[mu_m], with xi -> c.  h is the product
    of y - c^(p^i) over the Frobenius orbit of c, and its coefficients must
    lie in F_p."""
    modulus, g = field_generator(p, r)
    q = p**r
    if (q - 1) % m:
        raise ValidationError(f"{m} does not divide q-1 = {q - 1}")
    if r == 1:                          # c is an int, and h = y - c
        return -pow(g, (q - 1) // m, p) % p, 1
    c = _poly_pow(_digits(g, p, r), (q - 1) // m, modulus, p)
    roots = [c]
    while (nxt := _poly_pow(roots[-1], p, modulus, p)) != c:
        roots.append(nxt)
    zero = [0] * r
    h = [_digits(1, p, r)]              # coefficients in F_q, low degree first
    for a in roots:
        scaled = [_poly_mulmod(a, b, modulus, p) for b in h] + [zero]
        h = [[(u - v) % p for u, v in zip(b, ab)] for b, ab in zip([zero] + h, scaled)]
    if any(any(b[1:]) for b in h):
        raise InvariantViolationError(f"the minimal polynomial of a root of unity of "
                                      f"order {m} in F_{q} leaves F_{p}")
    return tuple(b[0] for b in h)


def check_table(p: int, r: int) -> None:
    """CapacityError unless q = p^r <= TABLE_BOUND; (p, r) is not rechecked."""
    if p**r > TABLE_BOUND:
        raise CapacityError(f"p={p} needs a table of F_{p**r} (degree {r}), "
                            f"beyond the table bound {TABLE_BOUND}", degree=r)


def make_field(p: int, r: int = 1) -> FieldTable:
    """F_{p^r}, tabulated on the canonical modulus and generator g of
    field_generator.  exp comes from the doubling in _exp_table, dlog
    inverts it, and zech reads dlog through the table of 1 - x at x = exp.
    Above this module, only charsum's kernel calls it: the other layers name
    a field by (p, r).
    """
    import numpy as np

    q = field_order(p, r)
    check_table(p, r)
    modulus, g = field_generator(p, r)
    exp = _exp_table(g, modulus, p, q)
    dl = np.full(q, -1, dtype=np.int64)
    dl[exp] = np.arange(q - 1, dtype=np.int64)
    if (dl[1:] < 0).any():
        raise InvariantViolationError(f"{g} does not generate F_{q}^*")
    return FieldTable(p=p, r=r, q=q, modulus=modulus, g=g, dlog=dl, exp=exp,
                      zech=dl[_minus_table(p, r)][exp])
