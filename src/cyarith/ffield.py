"""Tabulated finite fields F_q, q = p^r, with canonical generator and dlog table.

Elements are indexed 0..q-1.  For a prime field the index is the residue
itself; for an extension it encodes the coefficient vector of the residue
polynomial in base p, low degree first, so index = sum(c_j * p**j).  All
multiplicative structure is precomputed (exp/dlog tables), which makes the
character sums downstream pure table lookups.
"""
from __future__ import annotations

import math
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
    for e in 0..q-2.  The arrays must be treated as read-only.
    """

    p: int
    r: int
    q: int
    modulus: tuple[int, ...]  # monic, coefficients low degree first, length r+1
    g: int
    dlog: np.ndarray
    exp: np.ndarray
    digits: np.ndarray | None = None  # (q, r) base-p digit table, extensions only
    ppow: np.ndarray | None = None    # (r,) powers of p used to recompose digits

    # -- scalar arithmetic on element indices ---------------------------------

    def add(self, x: int, y: int) -> int:
        if self.r == 1:
            return (x + y) % self.p
        return int(((self.digits[x] + self.digits[y]) % self.p) @ self.ppow)

    def neg(self, x: int) -> int:
        if self.r == 1:
            return (-x) % self.p
        return int(((self.p - self.digits[x]) % self.p) @ self.ppow)

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg(y))

    def mul(self, x: int, y: int) -> int:
        if x == 0 or y == 0:
            return 0
        return int(self.exp[(int(self.dlog[x]) + int(self.dlog[y])) % (self.q - 1)])

    def inv(self, x: int) -> int:
        if x == 0:
            raise ValidationError("zero is not invertible")
        return int(self.exp[(-int(self.dlog[x])) % (self.q - 1)])

    def pow(self, x: int, n: int) -> int:
        if x == 0:
            if n == 0:
                return 1
            if n < 0:
                raise ValidationError("zero is not invertible")
            return 0
        return int(self.exp[(int(self.dlog[x]) * n) % (self.q - 1)])

    def frobenius(self, x: int) -> int:
        return self.pow(x, self.p)

    # -- vectorised arithmetic on arrays of element indices --------------------

    def units(self) -> np.ndarray:
        """All nonzero element indices, ascending."""
        return np.arange(1, self.q, dtype=np.int64)

    def vadd(self, a, b):
        if self.r == 1:
            return (a + b) % self.p
        return ((self.digits[a] + self.digits[b]) % self.p) @ self.ppow

    def vneg(self, a):
        if self.r == 1:
            return (-np.asarray(a)) % self.p
        return ((self.p - self.digits[a]) % self.p) @ self.ppow

    def vpow(self, a, n: int):
        a = np.asarray(a)
        safe = np.maximum(a, 1)
        out = self.exp[(self.dlog[safe] * n) % (self.q - 1)]
        return np.where(a == 0, 0, out)


def dlog(f: FieldTable, x: int) -> int:
    """Discrete logarithm of x base the canonical generator; zero rejected."""
    if not 1 <= x < f.q:
        raise ValidationError(f"dlog undefined for element index {x}")
    return int(f.dlog[x])


def _has_full_order(x: int, p: int, factors: list[int]) -> bool:
    return all(pow(x, (p - 1) // f, p) != 1 for f in factors)


def _tables_from_generator(p: int, g: int) -> tuple[np.ndarray, np.ndarray]:
    exp = np.empty(p - 1, dtype=np.int64)
    dl = np.full(p, -1, dtype=np.int64)
    x = 1
    for e in range(p - 1):
        exp[e] = x
        dl[x] = e
        x = x * g % p
    if (dl[1:] < 0).any():
        raise InvariantViolationError(f"{g} does not generate F_{p}^*")
    return dl, exp


def make_prime_field(p: int, g: int | None = None) -> FieldTable:
    """F_p tabulated on generator g, by default the smallest positive
    generator of the full unit group."""
    if not is_prime(p):
        raise PrimalityError(f"{p} is not prime")
    if p > PRIME_FIELD_BOUND:
        raise CapacityError(f"prime field bound is {PRIME_FIELD_BOUND}, got {p}")
    factors = prime_factors(p - 1)
    if g is None:
        g = next((x for x in range(2, p) if _has_full_order(x, p, factors)), 1)
    elif not 1 <= g < p or not _has_full_order(g, p, factors):
        raise ValidationError(f"{g} does not generate F_{p}^*")
    dl, exp = _tables_from_generator(p, g)
    return FieldTable(p=p, r=1, q=p, modulus=(0, 1), g=g, dlog=dl, exp=exp)


# -- polynomial helpers over F_p (coefficients low degree first) ---------------


def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mod(a: list[int], mod: tuple[int, ...], p: int) -> list[int]:
    a = [c % p for c in a]
    dm = len(mod) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c:
            for j in range(dm + 1):
                a[i - dm + j] = (a[i - dm + j] - c * mod[j]) % p
    del a[dm:]
    while len(a) < dm:
        a.append(0)
    return a


def _poly_mulmod(a: list[int], b: list[int], mod: tuple[int, ...], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return _poly_mod(out, mod, p)


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
        return False
    for d in range(1, r // 2 + 1):
        for low in product(range(p), repeat=d):
            if _poly_rem_is_zero(poly, low + (1,), p):
                return False
    return True


def _smallest_irreducible(p: int, r: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree r over F_p.

    Coefficient vectors are compared low degree first.
    """
    for low in product(range(p), repeat=r):
        cand = low + (1,)
        if _is_irreducible(cand, p):
            return cand
    raise InvariantViolationError(f"no irreducible of degree {r} over F_{p}")


def _digit_table(p: int, r: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    idx = np.arange(q, dtype=np.int64)
    digits = np.empty((q, r), dtype=np.int32)
    for j in range(r):
        digits[:, j] = (idx // p**j) % p
    ppow = np.array([p**j for j in range(r)], dtype=np.int64)
    return digits, ppow


def make_extension_field(p: int, r: int) -> FieldTable:
    """F_{p^r} on the lexicographically smallest monic irreducible modulus."""
    if not is_prime(p):
        raise PrimalityError(f"{p} is not prime")
    if r < 1:
        raise ValidationError("extension degree must be positive")
    if r == 1:
        return make_prime_field(p)
    q = p**r
    if q > EXTENSION_FIELD_BOUND:
        raise CapacityError(f"extension field bound is {EXTENSION_FIELD_BOUND}, got q={q}")
    modulus = _smallest_irreducible(p, r)
    digits, ppow = _digit_table(p, r, q)

    def decode(i: int) -> list[int]:
        return [int(d) for d in digits[i]]

    def encode(poly: list[int]) -> int:
        return int(sum(c * p**j for j, c in enumerate(poly)))

    def elem_pow(i: int, n: int) -> int:
        acc = [1] + [0] * (r - 1)
        base = decode(i)
        while n:
            if n & 1:
                acc = _poly_mulmod(acc, base, modulus, p)
            base = _poly_mulmod(base, base, modulus, p)
            n >>= 1
        return encode(acc)

    factors = prime_factors(q - 1)
    g = next(
        i for i in range(2, q)
        if all(elem_pow(i, (q - 1) // f) != 1 for f in factors)
    )

    exp = np.empty(q - 1, dtype=np.int64)
    dl = np.full(q, -1, dtype=np.int64)
    gp = decode(g)
    x = [1] + [0] * (r - 1)
    for e in range(q - 1):
        xi = encode(x)
        exp[e] = xi
        dl[xi] = e
        x = _poly_mulmod(x, gp, modulus, p)
    if (dl[1:] < 0).any():
        raise InvariantViolationError("generator order check failed")
    return FieldTable(p=p, r=r, q=q, modulus=modulus, g=g, dlog=dl, exp=exp,
                      digits=digits, ppow=ppow)


def make_field(p: int, r: int = 1) -> FieldTable:
    return make_prime_field(p) if r == 1 else make_extension_field(p, r)
