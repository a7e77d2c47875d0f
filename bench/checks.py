"""Checks on the JSON that cyarith's CLI prints, one function per command.

Each check returns a list of problems; an empty list means the output is
right.  Expected values come from ``oracle`` (computed apart from cyarith)
or from properties the method must have: the functional-equation
palindrome, the Weil bound, N_r read off the factor by Newton's identities,
multiplicativity of a_n.  No check compares against a stored copy of an
earlier output.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

import oracle


def degree_set(exponents) -> list[tuple[int, ...]]:
    """Tuples (a_0..a_s), 0 < a_i < n_i, with sum a_i / n_i an integer: the
    characters whose Jacobi sums make up the middle factor."""
    return [a for a in product(*(range(1, n) for n in exponents))
            if sum(Fraction(x, n) for x, n in zip(a, exponents)).denominator == 1]


def galois_orbit_count(exponents) -> int:
    """Orbits of the degree set under a -> t a, t a unit mod lcm(n_i)."""
    m = math.lcm(*exponents)
    seen, orbits = set(), 0
    for a in degree_set(exponents):
        if a in seen:
            continue
        orbits += 1
        for t in range(1, m):
            if math.gcd(t, m) == 1:
                seen.add(tuple(t * x % n for x, n in zip(a, exponents)))
    return orbits


def _ints(values, what: str, problems: list[str]) -> list[int] | None:
    try:
        return [int(v) for v in values]
    except (TypeError, ValueError):
        problems.append(f"{what}: not all integers")
        return None


def _check_factor(r: dict, p: int, dim: int, degree: int, problems: list[str]):
    """Shape, palindrome and sign of one middle factor; returns its
    coefficients, or None if they are unusable."""
    c = _ints(r.get("coefficients", ()), f"p={p} coefficients", problems)
    if c is None:
        return None
    B = len(c) - 1
    if r.get("degree") != degree or B != degree:
        problems.append(f"p={p}: degree {r.get('degree')} with {B + 1} coefficients, "
                        f"want {degree}")
        return None
    if c[0] != 1:
        problems.append(f"p={p}: c_0 = {c[0]}")
    if abs(c[B]) != p ** (dim * B // 2):
        problems.append(f"p={p}: |c_B| = {abs(c[B])} != p^{dim * B // 2}")
        return c
    eps = 1 if c[B] > 0 else -1
    bad = [k for k in range(B // 2 + 1) if c[B - k] != eps * c[k] * p ** (dim * (B - 2 * k) // 2)]
    if bad:
        problems.append(f"p={p}: palindrome fails at k={bad[:5]}")
    if r.get("functional_sign") != eps:
        problems.append(f"p={p}: functional_sign {r.get('functional_sign')} != {eps}")
    if r.get("rh_pass") is not True:
        problems.append(f"p={p}: rh_pass is {r.get('rh_pass')}")
    return c


def check_zeta(payload: dict, exponents, primes, skipped, counts: dict,
               new_cache_entries: int | None = None) -> list[str]:
    """zeta --json output: one exact factor per prime, consistent with the
    point counts in ``counts`` ({(p, r): N_r}).  When ``new_cache_entries``
    is given, the run must have written one cache entry per prime."""
    problems: list[str] = []
    dim = len(exponents) - 2
    degree = len(degree_set(exponents))
    if payload.get("exponents") != list(exponents):
        problems.append(f"exponents {payload.get('exponents')}")
    if payload.get("skipped_bad_primes") != list(skipped):
        problems.append(f"skipped {payload.get('skipped_bad_primes')} != {list(skipped)}")
    results = payload.get("results", [])
    got = [r.get("p") for r in results]
    if sorted(got) != sorted(primes):
        problems.append(f"primes {got} != {sorted(primes)}")
    for r in results:
        p = r.get("p")
        c = _check_factor(r, p, dim, degree, problems)
        if c is None:
            continue
        if dim == 1:
            if c[1] * c[1] > 4 * p:
                problems.append(f"p={p}: |c_1| = {abs(c[1])} > 2 sqrt(p)")
            if p % 3 == 2 and c[1] != 0:
                problems.append(f"p={p}: c_1 = {c[1]} on a supersingular prime")
        predicted = r.get("predicted_counts", {})
        newton = oracle.newton_counts(c, p, dim, len(predicted))
        for k, n in newton.items():
            if predicted.get(str(k)) != str(n):
                problems.append(f"p={p}: predicted N_{k} = {predicted.get(str(k))}, "
                                f"factor gives {n}")
            if (p, k) in counts and counts[(p, k)] != n:
                problems.append(f"p={p}: N_{k} = {n}, oracle counts {counts[(p, k)]}")
    if new_cache_entries is not None and new_cache_entries != len(primes):
        problems.append(f"{new_cache_entries} cache entries written for {len(primes)} primes")
    return problems


def check_count(payload: dict, exponents, primes, r: int, counts: dict,
                zeta_payload: dict | None) -> list[str]:
    """count --json output against oracle counts over F_{p^r} and, when the
    same round's zeta output is given, against its predicted N_r."""
    problems: list[str] = []
    predicted = {}
    for z in (zeta_payload or {}).get("results", []):
        predicted[z.get("p")] = z.get("predicted_counts", {}).get(str(r))
    rows = payload.get("counts", [])
    if payload.get("exponents") != list(exponents):
        problems.append(f"exponents {payload.get('exponents')}")
    if sorted(row.get("p") for row in rows) != sorted(primes):
        problems.append(f"primes {[row.get('p') for row in rows]} != {sorted(primes)}")
    for row in rows:
        p = row.get("p")
        q = p ** r
        if row.get("r") != r or row.get("q") != q:
            problems.append(f"p={p}: r={row.get('r')} q={row.get('q')}, want r={r} q={q}")
            continue
        nums = _ints((row.get("projective_points"), row.get("affine_points")),
                     f"p={p} counts", problems)
        if nums is None:
            continue
        proj, aff = nums
        if aff != 1 + (q - 1) * proj:
            problems.append(f"p={p}: affine {aff} != 1 + (q-1) * projective {proj}")
        if counts.get((p, r)) != proj:
            problems.append(f"p={p}: projective {proj}, oracle {counts.get((p, r))}")
        if zeta_payload is not None and predicted.get(p) != str(proj):
            problems.append(f"p={p}: projective {proj}, zeta predicts {predicted.get(p)}")
    return problems


def check_match(payload: dict, exponents, primes, cache_unchanged: bool,
                stderr: str) -> list[str]:
    """match --json output: every prime matched with sign +-1, with the
    ideal, orbit and multiset sizes the degree set implies, and every
    factor read from the cache without a rewrite or a discard."""
    problems: list[str] = []
    m = math.lcm(*exponents)
    ideals = sum(1 for t in range(1, m) if math.gcd(t, m) == 1)
    orbits = galois_orbit_count(exponents)
    results = payload.get("results", [])
    if sorted(r.get("p") for r in results) != sorted(primes):
        problems.append(f"primes {[r.get('p') for r in results]} != {sorted(primes)}")
    for r in results:
        p = r.get("p")
        want = {"m": m, "ideals": ideals, "orbit_reps": orbits,
                "multiset_size": ideals * orbits, "matched": True}
        for key, val in want.items():
            if r.get(key) != val:
                problems.append(f"p={p}: {key} = {r.get(key)}, want {val}")
        if r.get("sign") not in (1, -1):
            problems.append(f"p={p}: sign {r.get('sign')}")
    if not cache_unchanged:
        problems.append("cache entries were rewritten: not every factor was a hit")
    if "discarding" in stderr:
        problems.append("a cache entry was discarded")
    return problems


def check_hecke(payload: dict, m: int, a, cutoff: int, expected: list[int]) -> list[str]:
    """hecke --json output: a_n equal to the Gauss-sum values, multiplicative
    on coprime indices, and 0 wherever a non-split prime divides n."""
    problems: list[str] = []
    split = oracle.split_primes(m, cutoff)
    if payload.get("split_primes") != split:
        problems.append(f"split primes {payload.get('split_primes')} != {split}")
    vals = _ints(payload.get("coefficients", ()), "coefficients", problems)
    if vals is None:
        return problems
    if len(vals) != cutoff:
        return problems + [f"{len(vals)} coefficients, want {cutoff}"]
    an = [None] + vals
    wrong = [n for n in range(1, cutoff + 1) if an[n] != expected[n - 1]]
    if wrong:
        problems.append(f"a_n differs from the Gauss-sum value at n={wrong[:5]}")
    for x in range(2, cutoff + 1):
        for y in range(x + 1, cutoff // x + 1):
            if math.gcd(x, y) == 1 and an[x * y] != an[x] * an[y]:
                problems.append(f"a_{x * y} != a_{x} a_{y}")
    for n in range(2, cutoff + 1):
        nonsplit = [p for p in range(2, n + 1)
                    if n % p == 0 and oracle.is_prime(p) and p not in split]
        if nonsplit and an[n] != 0:
            problems.append(f"a_{n} = {an[n]} although {nonsplit[0]} does not split")
    return problems
