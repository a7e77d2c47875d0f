"""Point counts for diagonal projective hypersurfaces.

A diagonal hypersurface is the zero locus of sum_i x_i^{n_i} in projective
coordinates (x_0 : ... : x_s).  Projective counts divide out the scaling
torus: N = (N_affine - 1) / (q - 1), which is exact for every finite field
because the fibres of the quotient map are full G_m-torsors.

The fast counting path convolves per-coordinate power-value multisets over
the additive group of F_q; the direct path enumerates the affine grid and is
kept as the independent oracle.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from .errors import CapacityError, InvariantViolationError, ValidationError
from .ffield import FieldTable, is_prime

DIRECT_ENUM_BUDGET = 1 << 25    # affine grid cells for the exhaustive oracle
CONVOLUTION_BUDGET = 1 << 26    # q^2 cap for the additive-convolution path


@dataclass(frozen=True)
class DiagonalVariety:
    """Exponent data of sum_i x_i^{n_i} = 0 in P_s."""

    exponents: tuple[int, ...]

    def __post_init__(self):
        exps = tuple(int(n) for n in self.exponents)
        object.__setattr__(self, "exponents", exps)
        if len(exps) < 3:
            raise ValidationError("need at least 3 coordinates")
        if any(n < 2 for n in exps):
            raise ValidationError("all exponents must be >= 2")

    @classmethod
    def fermat(cls, degree: int, dim: int) -> "DiagonalVariety":
        """Fermat hypersurface of degree d and complex dimension dim."""
        return cls((degree,) * (dim + 2))

    @property
    def ambient_dim(self) -> int:
        return len(self.exponents) - 1

    @property
    def complex_dim(self) -> int:
        return len(self.exponents) - 2

    @property
    def is_fermat(self) -> bool:
        return len(set(self.exponents)) == 1

    @property
    def degree(self) -> int:
        if not self.is_fermat:
            raise ValidationError("degree is defined for the Fermat case only")
        return self.exponents[0]

    @property
    def is_calabi_yau(self) -> bool:
        # vanishing first Chern class: sum of weights d/n_i equals the degree d
        return sum(Fraction(1, n) for n in self.exponents) == 1

    def is_good_prime(self, p: int) -> bool:
        return is_prime(p) and all(n % p for n in self.exponents)


# -- affine solution counting ----------------------------------------------------


def _power_value_counts(f: FieldTable, n: int) -> np.ndarray:
    """counts[v] = #{x in F_q : x^n = v}, indexed by element index v."""
    e = np.arange(f.q - 1, dtype=np.int64)
    vals = f.exp[(e * n) % (f.q - 1)]
    c = np.bincount(vals, minlength=f.q).astype(np.int64)
    c[0] += 1
    return c


def _group_convolve(f: FieldTable, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """c[w] = sum_u a[u] * b[w - u] over the additive group of F_q."""
    q = f.q
    if f.r == 1:
        full = np.convolve(a, b)
        out = full[:q].copy()
        out[: q - 1] += full[q:]
        return out
    out = np.zeros(q, dtype=a.dtype)
    for u in range(q):
        au = a[u]
        if au:
            idx = ((f.digits - f.digits[u]) % f.p) @ f.ppow
            out += au * b[idx]
    return out


def _convolve_exact_lists(f: FieldTable, a: list[int], b: list[int]) -> list[int]:
    # arbitrary-precision fallback when int64 could overflow
    q = f.q
    out = [0] * q
    if f.r == 1:
        for u, au in enumerate(a):
            if au:
                for w in range(q):
                    out[(u + w) % q] += au * b[w]
        return out
    for u, au in enumerate(a):
        if au:
            idx = ((f.digits - f.digits[u]) % f.p) @ f.ppow
            for w in range(q):
                out[w] += au * b[int(idx[w])]
    return out


def _affine_count_convolution(v: DiagonalVariety, f: FieldTable) -> int:
    if f.q * f.q > CONVOLUTION_BUDGET:
        raise CapacityError(f"convolution path capped at q^2 <= {CONVOLUTION_BUDGET}")
    counts = [_power_value_counts(f, n) for n in v.exponents]
    if f.q ** len(counts) < 2**62:
        acc = counts[0]
        for c in counts[1:]:
            acc = _group_convolve(f, acc, c)
        return int(acc[0])
    acc = [int(x) for x in counts[0]]
    for c in counts[1:]:
        acc = _convolve_exact_lists(f, acc, [int(x) for x in c])
    return acc[0]


def _affine_count_direct(v: DiagonalVariety, f: FieldTable) -> int:
    """Exhaustive enumeration of the full affine grid (the counting oracle)."""
    s1 = len(v.exponents)
    q = f.q
    if q**s1 > DIRECT_ENUM_BUDGET:
        raise CapacityError(f"direct enumeration capped at q^(s+1) <= {DIRECT_ENUM_BUDGET}")
    pows = [f.vpow(np.arange(q, dtype=np.int64), n) for n in v.exponents]
    nv = min(3, s1)
    loop_pows, vec_pows = pows[: s1 - nv], pows[s1 - nv:]
    total = 0
    if f.r == 1:
        vsum = np.zeros((1,) * nv, dtype=np.int64)
        for j, vp in enumerate(vec_pows):
            vsum = vsum + vp.reshape((1,) * j + (q,) + (1,) * (nv - 1 - j))
        for prefix in product(range(q), repeat=s1 - nv):
            part = sum(int(tbl[x]) for tbl, x in zip(loop_pows, prefix))
            total += int(((part + vsum) % f.p == 0).sum())
        return total
    dig, r = f.digits, f.r
    vdig = np.zeros((1,) * nv + (r,), dtype=np.int32)
    for j, vp in enumerate(vec_pows):
        vdig = vdig + dig[vp].reshape((1,) * j + (q,) + (1,) * (nv - 1 - j) + (r,))
    for prefix in product(range(q), repeat=s1 - nv):
        part = np.zeros(r, dtype=np.int32)
        for tbl, x in zip(loop_pows, prefix):
            part = part + dig[int(tbl[x])]
        zero = (((part + vdig) % f.p) == 0).all(axis=-1)
        total += int(zero.sum())
    return total


def count_affine(v: DiagonalVariety, f: FieldTable, method: str = "convolution") -> int:
    if method == "convolution":
        return _affine_count_convolution(v, f)
    if method == "direct":
        return _affine_count_direct(v, f)
    raise ValidationError(f"unknown counting method {method!r}")


def count_projective(v: DiagonalVariety, f: FieldTable, method: str = "convolution") -> int:
    """Number of projective F_q points; exact-quotient check included."""
    na = count_affine(v, f, method)
    if (na - 1) % (f.q - 1):
        raise InvariantViolationError(
            f"affine count {na} is not 1 mod q-1; scaling torsor broken")
    return (na - 1) // (f.q - 1)
