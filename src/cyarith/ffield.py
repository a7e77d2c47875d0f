"""Tabulated finite fields F_q, q = p^r, with canonical generator and dlog table.

Every field, prime or not, is F_p[x] modulo a monic irreducible of degree r
(x itself when r = 1).  Element index i encodes the coefficient vector of the
residue polynomial in base p, low degree first, so index = sum(c_j * p**j);
for a prime field the index is the residue itself.  This module is the only
one that knows that encoding: a table carries the multiplicative structure
(exp/dlog) and the one piece of additive structure the character sums read,
the Zech logarithms dlog(1 - g**e), so every sum downstream is a pure table
lookup.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import CapacityError, InvariantViolationError, PrimalityError, ValidationError

PRIME_FIELD_BOUND = 100_000
EXTENSION_FIELD_BOUND = 1 << 20


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


def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_rem_is_zero(a: tuple[int, ...], b: tuple[int, ...], p: int) -> bool:
    """True when the monic polynomial b divides a over F_p."""
    a = list(a)
    db = len(b) - 1
    while len(_poly_trim(a)) - 1 >= db:
        da = len(a) - 1
        c = a[da]
        for j in range(db + 1):
            a[da - db + j] = (a[da - db + j] - c * b[j]) % p
    return not any(a)


def _is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    """Trial division by every monic polynomial of degree 1..deg/2."""
    r = len(poly) - 1
    if poly[0] == 0:
        return r == 1                   # x divides poly, which is irreducible iff poly = x
    for d in range(1, r // 2 + 1):
        for low in product(range(p), repeat=d):
            if _poly_rem_is_zero(poly, low + (1,), p):
                return False
    return True


def _smallest_irreducible(p: int, r: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree r over F_p.

    Coefficient vectors are compared low degree first, so degree 1 gives x.
    """
    for low in product(range(p), repeat=r):
        cand = low + (1,)
        if _is_irreducible(cand, p):
            return cand
    raise InvariantViolationError(f"no irreducible of degree {r} over F_{p}")


def _mul_matrix(a: int, modulus: tuple[int, ...], p: int) -> np.ndarray:
    """Matrix of y -> a*y on digit rows, a an element index:
    row(y) @ M = row(a*y) mod p.

    Row i holds the digits of a * x^i reduced by the monic modulus.
    """
    r = len(modulus) - 1
    low = np.array(modulus[:r], dtype=np.int64)
    m = np.zeros((r, r), dtype=np.int64)
    m[0] = [a // p**j % p for j in range(r)]
    for i in range(1, r):
        m[i, 1:] = m[i - 1, :-1]
        m[i] = (m[i] - m[i - 1, -1] * low) % p
    return m


def _mat_pow(m: np.ndarray, n: int, p: int) -> np.ndarray:
    out = np.eye(len(m), dtype=np.int64)
    while n:
        if n & 1:
            out = out @ m % p
        m = m @ m % p
        n >>= 1
    return out


def _generates(m: np.ndarray, q: int, p: int, factors: list[int]) -> bool:
    """True when the element with multiplication matrix m has order q-1."""
    one = np.eye(len(m), dtype=np.int64)
    return all(not np.array_equal(_mat_pow(m, (q - 1) // l, p), one) for l in factors)


def _exp_table(g: int, modulus: tuple[int, ...], p: int, q: int) -> np.ndarray:
    """Element indices of g^0 .. g^(q-2).

    Multiplication by g^n is an r x r matrix over F_p acting on digit rows,
    so the rows of g^n .. g^(2n-1) are those of g^0 .. g^(n-1) times the
    matrix of g^n: the table doubles in length per step.  Entries stay
    below p and a row-by-matrix product below r*p^2 < 2^63, so int64 is exact.
    The (q-1) x r rows are freed on return.
    """
    r = len(modulus) - 1
    rows = np.zeros((q - 1, r), dtype=np.int64)
    rows[0, 0] = 1
    step, n = _mul_matrix(g, modulus, p), 1
    while n < q - 1:
        k = min(n, q - 1 - n)
        block = rows[n:n + k]          # a view: the product is written in place
        np.matmul(rows[:k], step, out=block)
        block %= p
        step, n = step @ step % p, n + k
    return rows @ p ** np.arange(r, dtype=np.int64)


def make_field(p: int, r: int = 1, g: int | None = None) -> FieldTable:
    """F_{p^r} on the lexicographically smallest monic irreducible modulus,
    tabulated on generator g, by default the smallest element index that
    generates F_q^*.

    The Zech table negates the base-p digits of exp one column at a time
    and adds 1 to the constant digit.
    """
    if not is_prime(p):
        raise PrimalityError(f"{p} is not prime")
    if r < 1:
        raise ValidationError("extension degree must be positive")
    q = p**r
    bound = PRIME_FIELD_BOUND if r == 1 else EXTENSION_FIELD_BOUND
    if q > bound:
        raise CapacityError(f"field table bound for degree {r} is {bound}, got q={q}")
    modulus = _smallest_irreducible(p, r)
    factors = prime_factors(q - 1)
    if g is None:
        g = next(i for i in range(1, q)
                 if _generates(_mul_matrix(i, modulus, p), q, p, factors))
    elif not 1 <= g < q or not _generates(_mul_matrix(g, modulus, p), q, p, factors):
        raise ValidationError(f"{g} does not generate F_{q}^*")
    exp = _exp_table(g, modulus, p, q)
    dl = np.full(q, -1, dtype=np.int64)
    dl[exp] = np.arange(q - 1, dtype=np.int64)
    if (dl[1:] < 0).any():
        raise InvariantViolationError(f"{g} does not generate F_{q}^*")
    one_minus = np.zeros(q - 1, dtype=np.int64)
    for j in range(r):
        one_minus += ((j == 0) - exp // p**j) % p * p**j
    return FieldTable(p=p, r=r, q=q, modulus=modulus, g=g, dlog=dl, exp=exp,
                      zech=dl[one_minus])
