"""Reference arithmetic the benchmark checks cyarith's outputs against.

Nothing here imports cyarith: the field arithmetic, the point counts and the
Gauss sums are written from the definitions, so a fault in the library
cannot hide by appearing on both sides of a check.

- ``Field``: F_{p^r} with elements encoded as integers sum d_i p^i, built on
  the first monic irreducible polynomial found by trial division.
- ``projective_count``: #{x in P^s(F_q) : sum x_i^{n_i} = 0}, by iterated
  additive convolution of the value distributions of x -> x^n.
- ``brute_projective_count``: the same count by enumerating every affine
  point of a prime field (the reference for ``projective_count``).
- ``hecke_coefficients``: a_n of the Jacobi-sum Hecke character of
  Q(mu_m), from Gauss sums in complex floating point, rounded to integers.
- ``newton_counts``: N_r from the coefficients of a middle local factor.
"""

from __future__ import annotations

import cmath
import math
from itertools import product

import numpy as np


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def primitive_root(p: int) -> int:
    """Smallest generator of (Z/p)^*."""
    factors = [d for d in range(2, p) if (p - 1) % d == 0 and is_prime(d)]
    return next(g for g in range(1, p)
                if all(pow(g, (p - 1) // d, p) != 1 for d in factors))


# -- finite fields ------------------------------------------------------------------


def _poly_rem(a: list[int], b: list[int], p: int) -> list[int]:
    """a mod b over F_p; b monic, coefficients low degree first."""
    a = list(a)
    for k in range(len(a) - 1, len(b) - 2, -1):
        c = a[k] % p
        if c:
            for i, bi in enumerate(b):
                a[k - len(b) + 1 + i] -= c * bi
    return [x % p for x in a[: len(b) - 1]]


def _monic_polys(p: int, d: int):
    for low in product(range(p), repeat=d):
        yield list(low) + [1]


def irreducible_poly(p: int, r: int) -> list[int]:
    """First monic irreducible polynomial of degree r over F_p (low first)."""
    for cand in _monic_polys(p, r):
        if cand[0] == 0 and r > 1:
            continue
        if all(any(_poly_rem(cand, div, p)) for d in range(1, r // 2 + 1)
               for div in _monic_polys(p, d)):
            return cand
    raise ValueError(f"no irreducible polynomial of degree {r} over F_{p}")


class Field:
    """F_{p^r}; element i has digits d_j = (i // p^j) % p of sum d_j x^j."""

    def __init__(self, p: int, r: int = 1):
        if not is_prime(p) or r < 1:
            raise ValueError(f"no field F_{p}^{r}")
        self.p, self.r, self.q = p, r, p ** r
        self.modulus = irreducible_poly(p, r) if r > 1 else [0, 1]
        self.ppow = p ** np.arange(r, dtype=np.int64)
        idx = np.arange(self.q, dtype=np.int64)
        self.digits = (idx[:, None] // self.ppow) % p

    def encode(self, digits: np.ndarray) -> np.ndarray:
        return (digits % self.p) @ self.ppow

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Products of digit rows (shape (k, r)), reduced by the modulus."""
        p, r = self.p, self.r
        prod = np.zeros((a.shape[0], 2 * r - 1), dtype=np.int64)
        for i in range(r):
            prod[:, i:i + r] += a[:, i:i + 1] * b
        prod %= p
        for k in range(2 * r - 2, r - 1, -1):
            c = prod[:, k:k + 1]
            prod[:, k - r:k + 1] -= c * np.asarray(self.modulus, dtype=np.int64)
            prod %= p
        return prod[:, :r]

    def power_table(self, n: int) -> np.ndarray:
        """Index of x^n for every element index x."""
        out = np.zeros_like(self.digits)
        out[:, 0] = 1
        base = self.digits.copy()
        while n:
            if n & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            n >>= 1
        return self.encode(out)

    def neg_index(self) -> np.ndarray:
        return self.encode(-self.digits)

    def sub_index(self, u: int) -> np.ndarray:
        """Index of w - u for every element index w."""
        return self.encode(self.digits - self.digits[u])


# -- point counts ---------------------------------------------------------------------


def affine_count(exponents, p: int, r: int = 1) -> int:
    """#{x in F_q^(s+1) : sum x_i^{n_i} = 0} by additive convolution."""
    f = Field(p, r)
    q = f.q
    if q ** (len(exponents) - 1) >= 2 ** 62:
        raise ValueError(f"count over F_{q} would overflow int64")
    dists = [np.bincount(f.power_table(n), minlength=q) for n in exponents]
    acc = dists[0]
    for d in dists[1:-1]:
        nxt = np.zeros(q, dtype=np.int64)
        for u in np.flatnonzero(acc):
            nxt += acc[u] * d[f.sub_index(int(u))]
        acc = nxt
    # value at 0 of acc * last: sum_u acc[u] * last[-u]
    return int(acc @ dists[-1][f.neg_index()])


def projective_count(exponents, p: int, r: int = 1) -> int:
    q = p ** r
    na = affine_count(exponents, p, r)
    if (na - 1) % (q - 1):
        raise ArithmeticError(f"affine count {na} is not 1 mod {q - 1}")
    return (na - 1) // (q - 1)


def brute_projective_count(exponents, p: int) -> int:
    """Projective count over a prime field by enumerating the affine grid."""
    k = len(exponents)
    if p ** k > 1 << 24:
        raise ValueError(f"grid of {p}^{k} points is too large to enumerate")
    x = np.arange(p, dtype=np.int64)
    total = np.zeros((1,) * k, dtype=np.int64)
    for i, n in enumerate(exponents):
        shape = [1] * k
        shape[i] = p
        total = total + (np.array([pow(int(v), n, p) for v in x]).reshape(shape))
    zeros = int((total % p == 0).sum())
    return (zeros - 1) // (p - 1)


def newton_counts(coeffs, p: int, dim: int, rmax: int) -> dict[int, int]:
    """N_1..N_rmax of a diagonal hypersurface from its middle factor P(t).

    With P(t) = prod (1 - b_i t) = sum c_k t^k, the power sums
    s_r = sum b_i^r obey s_r = -r c_r - sum_{k<r} c_k s_{r-k}, and
    N_r = sum_{j<=dim} p^(j r) + (-1)^dim s_r.
    """
    c = list(coeffs) + [0] * rmax
    s = {}
    for r in range(1, rmax + 1):
        s[r] = -r * c[r] - sum(c[k] * s[r - k] for k in range(1, r))
    return {r: sum(p ** (j * r) for j in range(dim + 1)) + (-1) ** dim * s[r]
            for r in range(1, rmax + 1)}


# -- Gauss sums and the Hecke character ---------------------------------------------


def _gauss_sum(p: int, g: int, m: int, j: int) -> complex:
    """g(chi) = sum_x chi(x) e(x/p) with chi(g^k) = exp(2 pi i j k / m)."""
    total, x = 0j, 1
    for k in range(p - 1):
        total += cmath.exp(2j * math.pi * (j * k % m) / m) * cmath.exp(2j * math.pi * x / p)
        x = x * g % p
    return total


def jacobi_from_gauss(p: int, m: int, exps) -> list[complex]:
    """J(chi^a_1, ..., chi^a_r) over F_p (u_1 + ... + u_r = 1) for every
    character chi of exact order m, from Gauss sums.

    All chi^a_i must be nontrivial.  When their product is nontrivial,
    J = prod g(chi^a_i) / g(chi^(sum a)); when it is trivial,
    J = -prod g(chi^a_i) / p (Ireland-Rosen ch. 8, section 5).
    """
    if (p - 1) % m:
        raise ValueError(f"p={p} is not 1 mod {m}")
    g = primitive_root(p)
    step = (p - 1) // m
    out = []
    for t in range(1, m):
        if math.gcd(t, m) != 1:
            continue
        # chi(g^k) = exp(2 pi i t k / m): the order-m character sending g to zeta_m^t
        gs = {a % m: _gauss_sum(p, g, p - 1, (a * t % m) * step) for a in set(exps)}
        if 0 in gs:
            raise ValueError("trivial character in a Jacobi sum")
        num = math.prod(gs[a % m] for a in exps)
        tot = sum(exps) % m
        if tot:
            out.append(num / _gauss_sum(p, g, p - 1, (tot * t % m) * step))
        else:
            out.append(-num / p)
    return out


def _round_exact(z: complex, what: str) -> int:
    n = round(z.real)
    if abs(z - n) > 1e-6 * max(1.0, abs(z)):
        raise ArithmeticError(f"{what} = {z} is not an integer")
    return n


def hecke_coefficients(m: int, a, cutoff: int) -> list[int]:
    """a_1..a_cutoff of the Jacobi-sum Hecke character of Q(mu_m) with
    exponent vector a, Euler product over totally split primes only.

    At a split prime the phi(m) ideals contribute reciprocal roots
    beta = (-1)^(r+1) chi^(sum a)(-1) J(chi^a_1..chi^a_r), one per
    character chi of order m (the ideal's labelling sums over
    u_1 + ... + u_r = -1), and a_{p^k} is the complete homogeneous
    symmetric polynomial h_k of the betas.  Non-split primes give 0.
    """
    r = len(a)
    a_n = [0] * (cutoff + 1)
    a_n[1] = 1
    local: dict[int, list[int]] = {}
    for p in range(2, cutoff + 1):
        if not is_prime(p):
            continue
        kmax = int(math.log(cutoff, p) + 1e-9)
        if (p - 1) % m:
            local[p] = [1] + [0] * kmax
            continue
        betas = [(-1) ** (r + 1) * _chi_minus_one(p, m, t, sum(a)) * j
                 for t, j in zip(_units(m), jacobi_from_gauss(p, m, a))]
        h = [1 + 0j] + [0j] * kmax     # h_k(b_1..b_i), one root at a time
        for b in betas:
            for k in range(1, kmax + 1):
                h[k] += b * h[k - 1]
        local[p] = [_round_exact(z, f"a_{p}^{k}") for k, z in enumerate(h)]
    for n in range(2, cutoff + 1):
        val, rest = 1, n
        for p, series in local.items():
            if rest % p == 0:
                k = 0
                while rest % p == 0:
                    rest //= p
                    k += 1
                val *= series[k]
            if rest == 1:
                break
        a_n[n] = val
    return a_n[1:]


def _units(m: int) -> list[int]:
    return [t for t in range(1, m) if math.gcd(t, m) == 1]


def _chi_minus_one(p: int, m: int, t: int, e: int) -> int:
    """chi^e(-1) for the order-m character chi with chi(g) = zeta_m^t: -1 is
    g^((p-1)/2), so the value is zeta_m^(t e (p-1)/2), which is +-1."""
    k = t * e * ((p - 1) // 2) % m
    if k == 0:
        return 1
    if 2 * k == m:
        return -1
    raise ArithmeticError("chi(-1) must be +-1")


def split_primes(m: int, cutoff: int) -> list[int]:
    return [p for p in range(2, cutoff + 1) if is_prime(p) and (p - 1) % m == 0]
