"""The table method: tabulated finite fields F_q, q = p^r, and the Jacobi
sums read off them.

A table, built on ffield's element indices, modulus and generator, carries
the multiplicative structure (exp/dlog) and the one piece of additive
structure the character sums read, the Zech logarithms dlog(1 - g**e), so
every sum here is a pure table lookup: one (dlog(1-v), dlog v) class table
per field, read through Weil's reduction to two-variable sums
(kernel_sums).  A table costs O(q) numpy work and little else;
charsum.unit_sums imports this module only for a head that has no closed
form, so a run whose sums are all in closed form never loads numpy.  One
size rule holds at every degree, stated by check_table: q <= TABLE_BOUND.
"""
from __future__ import annotations

import math

import numpy as np

from .cyclo import CycInt
from .errors import CapacityError, InvariantViolationError, ValidationError
from .ffield import digits, field_generator, field_order
from .record import Record

TABLE_BOUND = 1 << 20   # the largest q = p^r that make_field tabulates, for every r


class FieldTable(Record):
    """A fully tabulated finite field.

    modulus is monic, its r+1 coefficients low degree first.  dlog[x] is
    the discrete logarithm of element index x base the canonical generator
    g (dlog[0] = -1 sentinel); exp[e] is the element index of g**e for e in
    0..q-2; zech[e] = dlog(1 - g**e), so zech[0] = -1.  The arrays must be
    treated as read-only.
    """

    __slots__ = ("p", "r", "q", "modulus", "g", "dlog", "exp", "zech")

    def __init__(self, p: int, r: int, q: int, modulus: tuple[int, ...], g: int,
                 dlog: np.ndarray, exp: np.ndarray, zech: np.ndarray):
        self._fill(p, r, q, modulus, g, dlog, exp, zech)


def dlog(f: FieldTable, x: int) -> int:
    """Discrete logarithm of x base the canonical generator; zero rejected."""
    if not 1 <= x < f.q:
        raise ValidationError(f"dlog undefined for element index {x}")
    return int(f.dlog[x])


def _mul_matrix(a: int, modulus: tuple[int, ...], p: int) -> np.ndarray:
    """Matrix of y -> a*y on digit rows, a an element index:
    row(y) @ M = row(a*y) mod p.

    Row i holds the digits of a * x^i reduced by the monic modulus.
    """
    r = len(modulus) - 1
    low = np.array(modulus[:r], dtype=np.int64)
    m = np.zeros((r, r), dtype=np.int64)
    m[0] = digits(a, p, r)
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
    minus = np.arange(p + 1, 1, -1)
    minus[:2] = 1, 0                              # 1 - c mod p
    for j in range(1, r):
        neg = np.arange(p, 0, -1) % p             # -c mod p
        minus = (neg[:, None] * p**j + minus).ravel()
    return minus


def check_table(p: int, r: int) -> None:
    """CapacityError unless q = p^r <= TABLE_BOUND; (p, r) is not rechecked."""
    if p**r > TABLE_BOUND:
        raise CapacityError(f"p={p} needs a table of F_{p**r} (degree {r}), "
                            f"beyond the table bound {TABLE_BOUND}", degree=r)


def make_field(p: int, r: int = 1) -> FieldTable:
    """F_{p^r}, tabulated on the canonical modulus and generator g of
    ffield.field_generator.  exp comes from the doubling in _exp_table, dlog
    inverts it, and zech reads dlog through the table of 1 - x at x = exp.
    Only kernel_sums calls it: the other layers name a field by (p, r).
    """
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


# -- Jacobi sums: the kernel ---------------------------------------------------------

def dlog_pair_table(f: FieldTable, M: int) -> np.ndarray:
    """C[i, j] = #{v in F_q minus {0, 1} : dlog(1-v) = i, dlog(v) = j mod M}.

    Every two-variable Jacobi sum with characters of order dividing M is a
    weighted read of this table.  v -> 1-v permutes F_q minus {0, 1}, so
    both marginals must equal the dlog class sizes less the excluded v = 1.
    With v = g^e for e in 1..q-2, dlog(1-v) is the Zech logarithm zech[e].
    """
    q = f.q
    if (q - 1) % M:
        raise ValidationError(f"character order {M} does not divide q-1 = {q - 1}")
    flat = f.zech[1:] % M * M + np.arange(1, q - 1, dtype=np.int64) % M
    table = np.bincount(flat, minlength=M * M).reshape(M, M)
    sizes = (q - 1) // M - (np.arange(M) == 0)
    if not (np.array_equal(table.sum(0), sizes) and np.array_equal(table.sum(1), sizes)):
        raise InvariantViolationError("pair table marginals are not the dlog class sizes")
    return table


def _unit_sum(table: np.ndarray, q: int, m: int, exps) -> CycInt:
    """One row of charsum.unit_sums on a table already folded to modulus m.

    Weil's reduction to two-variable sums: with psi_k = chi_0 ... chi_k,
    A_k = sum over u_0 + ... + u_k = 1 and Z_k = sum over u_0 + ... + u_k = 0
    obey A_{k+1} = A_k J2(psi_k, chi_{k+1}) + Z_k and
    Z_{k+1} = psi_k(-1) (q-1) A_k when psi_{k+1} is trivial, else 0.
    """
    half = (q - 1) // 2 if q % 2 else 0          # dlog(-1)
    k = np.arange(m)

    def at_minus_one(e: int) -> int:
        return 1 if e * half % m == 0 else -1

    a, z, psi = CycInt.one(m), CycInt.zero(m), exps[0] % m
    for e in exps[1:]:
        classes = (psi * k[:, None] + e * k[None, :]) % m
        j2 = np.zeros(m, dtype=np.int64)
        np.add.at(j2, classes.ravel(), table.ravel())
        nxt = (psi + e) % m
        z_next = (q - 1) * at_minus_one(psi) * a if nxt == 0 else CycInt.zero(m)
        a = a * CycInt.from_exponent_counts(m, j2.tolist()) + z
        z, psi = z_next, nxt
    return at_minus_one(psi) * a


def kernel_sums(p: int, r: int, heads) -> dict[tuple, CycInt]:
    """_unit_sum at every head (m, exps) over F_{p^r}, from one pair table of
    make_field(p, r), the one table a sum reads, built at the lcm of the
    moduli and folded down to each."""
    f = make_field(p, r)
    big_m = math.lcm(*(m for m, _ in heads))
    table = dlog_pair_table(f, big_m)
    folded = {m: table.reshape(big_m // m, m, big_m // m, m).sum(axis=(0, 2))
              for m in {m for m, _ in heads}}
    return {(m, e): _unit_sum(folded[m], f.q, m, e) for m, e in heads}
