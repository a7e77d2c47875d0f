"""Exact arithmetic in Z[mu_m] on the power basis 1, xi, ..., xi^(phi(m)-1).

Everything here is integer-exact: products are reduced modulo the m-th
cyclotomic polynomial, Galois maps permute root exponents, and norms are
checked to land in Z.  Division with remainder, and with it Euclid's gcd,
works where Z[mu_m] is norm-Euclidean.  Floating point appears only in the
numeric views (embeddings, unit moduli, determinants).
"""
from __future__ import annotations

import cmath
import math
from functools import lru_cache
from itertools import product

from .errors import InvariantViolationError, ValidationError
from .record import Value


def _poly_divide_exact(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials (low degree first)."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + len(den) - 1]
        if c % den[-1]:
            raise InvariantViolationError("non-exact polynomial division")
        c //= den[-1]
        out[i] = c
        if c:
            for j, d in enumerate(den):
                num[i + j] -= c * d
    if any(num):
        raise InvariantViolationError("non-exact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of Phi_m, low degree first, computed by exact division."""
    if m < 1:
        raise ValidationError("conductor must be positive")
    poly = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            poly = _poly_divide_exact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


@lru_cache(maxsize=None)
def _ring(m: int):
    """Per-conductor context: phi(m) and the reduction table xi^k -> power basis."""
    phi_coeffs = cyclotomic_polynomial(m)
    phi = len(phi_coeffs) - 1
    # xi^phi = -(c_0 + c_1 xi + ... + c_{phi-1} xi^{phi-1}) since Phi_m is monic
    top = [-c for c in phi_coeffs[:phi]]
    kmax = max(m, 2 * phi - 1)
    red: list[tuple[int, ...]] = []
    cur = [1] + [0] * (phi - 1)
    for _ in range(kmax):
        red.append(tuple(cur))
        nxt = [0] + cur[:-1]
        lead = cur[-1]
        if lead:
            for j in range(phi):
                nxt[j] += lead * top[j]
        cur = nxt
    return phi, red


def euler_phi(m: int) -> int:
    return _ring(m)[0]


def _substitute(m: int, items, s: int) -> tuple[int, ...]:
    """sum of c * xi_m^(k*s) over the pairs (k, c), on the power basis."""
    phi, red = _ring(m)
    acc = [0] * phi
    for k, c in items:
        if c:
            for j, rc in enumerate(red[k * s % m]):
                acc[j] += c * rc
    return tuple(acc)


class CycInt(Value):
    """Cyclotomic integer: coeffs[k] multiplies xi^k, len(coeffs) = phi(m)."""

    __slots__ = ("m", "coeffs")

    def __init__(self, m: int, coeffs: tuple[int, ...]):
        phi = _ring(m)[0]
        if len(coeffs) != phi:
            raise ValidationError(f"conductor {m} needs {phi} coefficients")
        object.__setattr__(self, "m", m)            # not _fill: the hot constructor
        object.__setattr__(self, "coeffs", coeffs)

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zero(cls, m: int) -> "CycInt":
        return cls(m, (0,) * _ring(m)[0])

    @classmethod
    def one(cls, m: int) -> "CycInt":
        return cls.from_int(m, 1)

    @classmethod
    def from_int(cls, m: int, n: int) -> "CycInt":
        phi = _ring(m)[0]
        return cls(m, (n,) + (0,) * (phi - 1))

    @classmethod
    def root(cls, m: int, e: int = 1) -> "CycInt":
        """xi^e reduced to the power basis."""
        return cls(m, _ring(m)[1][e % m])

    @classmethod
    def from_exponent_counts(cls, m: int, counts) -> "CycInt":
        """sum_e counts[e] * xi^e, from a sequence indexed by e or an
        {e: count} mapping."""
        items = counts.items() if isinstance(counts, dict) else enumerate(counts)
        return cls(m, _substitute(m, items, 1))

    # -- ring operations -------------------------------------------------------

    def _check(self, other: "CycInt"):
        if self.m != other.m:
            raise ValidationError(f"conductor mismatch: {self.m} vs {other.m}")

    def __add__(self, other):
        if isinstance(other, int):
            other = CycInt.from_int(self.m, other)
        self._check(other)
        return CycInt(self.m, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycInt(self.m, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, int):
            other = CycInt.from_int(self.m, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return CycInt(self.m, tuple(a * other for a in self.coeffs))
        self._check(other)
        phi, red = _ring(self.m)
        conv = [0] * (2 * phi - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        conv[i + j] += a * b
        acc = conv[:phi]
        for k in range(phi, 2 * phi - 1):
            c = conv[k]
            if c:
                for j, rc in enumerate(red[k]):
                    acc[j] += c * rc
        return CycInt(self.m, tuple(acc))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValidationError("negative powers are not defined in Z[mu_m]")
        out = CycInt.one(self.m)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __bool__(self):
        return any(self.coeffs)

    # -- Galois structure ------------------------------------------------------

    def galois(self, ell: int) -> "CycInt":
        """sigma_ell: xi -> xi^ell, for gcd(ell, m) = 1."""
        if math.gcd(ell, self.m) != 1:
            raise ValidationError(f"sigma_{ell} is not a Galois element mod {self.m}")
        return CycInt(self.m, _substitute(self.m, enumerate(self.coeffs), ell))

    def conj(self) -> "CycInt":
        return self.galois(self.m - 1)

    def _cofactor(self) -> "CycInt":
        """Product of the conjugates sigma_ell(self), ell != 1: times self, the norm."""
        out = CycInt.one(self.m)
        for ell in range(2, self.m + 1):
            if math.gcd(ell, self.m) == 1:
                out = out * self.galois(ell)
        return out

    def norm(self) -> int:
        """Product over all Galois conjugates; must be a rational integer."""
        out = self * self._cofactor()
        if not out.is_rational():
            raise InvariantViolationError("norm did not collapse to Z")
        return out.coeffs[0]

    def trace(self) -> int:
        """Sum over all Galois conjugates; must be a rational integer."""
        units = (ell for ell in range(2, self.m + 1) if math.gcd(ell, self.m) == 1)
        return sum(map(self.galois, units), self).rational_value()

    # -- views -----------------------------------------------------------------

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def rational_value(self) -> int:
        if not self.is_rational():
            raise InvariantViolationError(f"not a rational integer: {self.coeffs}")
        return self.coeffs[0]

    def embed(self, c: int = 1) -> complex:
        """Complex value under xi -> exp(2 pi i c / m)."""
        z = cmath.exp(2j * cmath.pi * c / self.m)
        out = 0j
        for k in reversed(range(len(self.coeffs))):
            out = out * z + self.coeffs[k]
        return out

    def lift(self, big_m: int) -> "CycInt":
        """Image in Z[mu_M] for m | M (xi_m = xi_M^(M/m))."""
        if big_m % self.m:
            raise ValidationError(f"{self.m} does not divide {big_m}")
        if big_m == self.m:
            return self
        return CycInt(big_m, _substitute(big_m, enumerate(self.coeffs), big_m // self.m))

    def __repr__(self):
        return f"CycInt(m={self.m}, coeffs={self.coeffs})"


def _euclid_step(a: CycInt, b: CycInt, co: CycInt, norm: int):
    """(q, r, co_r, N(r)) with a = q * b + r, |N(r)| < |N(b)| and co_r the
    cofactor of r, given b's cofactor co and its norm N(b) = b * co.

    a / b is a * co / N(b); q rounds it to the nearest point of the power
    basis or, if that leaves |N(r)| too large, to the best corner of the
    unit cube around it.  Such a q exists for every quotient when Z[mu_m] is
    norm-Euclidean (m = 3, 5, 7, for instance), but need not be one of these
    roundings: InvariantViolationError when none reduces.
    """
    bound, num = abs(norm), (a * co).coeffs
    if norm < 0:
        num = tuple(-x for x in num)

    def step(q: CycInt):
        r = a - q * b
        co_r = r._cofactor()
        return q, r, co_r, (r * co_r).rational_value()

    best = step(CycInt(a.m, tuple((2 * x + bound) // (2 * bound) for x in num)))
    if abs(best[3]) >= bound:
        corners = (CycInt(a.m, tuple(x // bound + d for x, d in zip(num, ds)))
                   for ds in product((0, 1), repeat=len(num)))
        best = min(map(step, corners), key=lambda s: abs(s[3]))
        if abs(best[3]) >= bound:
            raise InvariantViolationError(
                f"no rounding of the quotient reduces the norm below {bound} in Z[mu_{a.m}]")
    return best


def cyclotomic_gcd(a: CycInt, b: CycInt) -> CycInt:
    """A generator of the ideal (a, b) of Z[mu_m], unique up to a unit, by
    Euclid's algorithm; the norm falls at every step, and each remainder's
    cofactor serves both its norm and the next division."""
    a._check(b)
    if b:
        co = b._cofactor()
        norm = (b * co).rational_value()
    while b:
        _, r, co, r_norm = _euclid_step(a, b, co, norm)
        a, b, norm = b, r, r_norm
    return a


# -- group ring of (Z/m)^* ------------------------------------------------------


class GroupRingElement(Value):
    """Integer combination of Galois elements sigma_ell, keys coprime to m;
    terms are the sorted (ell, coefficient) pairs."""

    __slots__ = ("m", "terms")

    def __init__(self, m: int, terms: tuple[tuple[int, int], ...]):
        for ell, _ in terms:
            if math.gcd(ell % m, m) != 1:
                raise ValidationError(f"key {ell} not coprime to {m}")
        self._fill(m, terms)

    def as_dict(self) -> dict[int, int]:
        return dict(self.terms)


def s_element(a, m: int) -> GroupRingElement:
    """Group-ring element S(a) with, for each unit ell mod m, the integer part
    of sum_i <ell a_i / m> attached to sigma_ell^{-1}.

    Keys in the result are the inverse indices, i.e. the coefficient computed
    at ell is stored under ell^{-1} mod m.
    """
    a = [int(x) for x in a]
    if m < 2:
        raise ValidationError("conductor must be at least 2")
    coeffs: dict[int, int] = {}
    for ell in range(1, m):
        if math.gcd(ell, m) != 1:
            continue
        total = sum((ell * ai) % m for ai in a)
        key = pow(ell, -1, m)
        coeffs[key] = total // m
    return GroupRingElement(m, tuple(sorted(coeffs.items())))


def hecke_weight(a, m: int) -> int | None:
    """The constant n_sigma + n_conj(sigma) of S(a) if constant, else None."""
    e = s_element(a, m).as_dict()
    sums = {e[ell] + e[(m - ell) % m] for ell in e}
    return sums.pop() if len(sums) == 1 else None


# -- cyclotomic units and their determinant -------------------------------------


def cyclotomic_unit(m: int, j: int) -> tuple[CycInt, float]:
    """theta_j: exact form 1 + xi + ... + xi^(j-1) and numeric modulus
    sin(j pi / m) / sin(pi / m)."""
    if m < 2:
        raise ValidationError("conductor must be at least 2")
    if not 1 <= j < m or math.gcd(j, m) != 1:
        raise ValidationError(f"index {j} must lie in 1..{m - 1} and be coprime to {m}")
    exact = CycInt.from_exponent_counts(m, [1] * j)
    numeric = math.sin(j * math.pi / m) / math.sin(math.pi / m)
    return exact, numeric


def delta_determinant(p: int) -> float:
    """|det sigma_c(theta_k)| over the square truncation c = 1..(p-3)/2,
    k = 2..(p-1)/2, with sigma_c(theta_k) = sin(c k pi / p) / sin(c pi / p)."""
    import numpy as np

    from .ffield import is_prime

    if not is_prime(p) or p < 5:
        raise ValidationError("need an odd prime p >= 5")
    ks = np.arange(2, (p - 1) // 2 + 1)
    cs = np.arange(1, (p - 3) // 2 + 1)
    mat = np.sin(np.outer(cs, ks) * np.pi / p) / np.sin(cs * np.pi / p)[:, None]
    return abs(float(np.linalg.det(mat)))
