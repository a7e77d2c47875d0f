"""Command-line frontend tying the library together.

Subcommands map one-to-one onto the computational layers: rational point
counts, Jacobi sums, local zeta factors, Hasse-Weil Dirichlet coefficients,
Jacobi-sum Hecke characters, cyclotomic unit tables, the SU(2) WZW data, and
the zeta-root vs Hecke-value match.  Output goes to stdout (or --out) as
JSON, CSV, or a plain table.  Big integers are serialized as decimal strings
in JSON so values survive any double-precision consumer.  A run builds only
the format asked for, and encodes and writes it in runs of OUT_BATCH (64 KiB)
as it is made, never as one string: `zeta -d 5 -n 3 -p 2..2000 --json`
(14.6 MB) peaks at 33 MiB max-RSS, where the one-string writer took 87 MiB.

Exit codes: 0 success, 1 validation error (bad flags, bad primes,
inconsistent variety spec), 2 invariant violation, meaning a mathematical
self-check failed mid-run.  The last one is the serious outcome.

Complete local zeta factors go through cyarith.cache.local_factor, one JSON
file per (exponent vector, prime) under --cache or CYARITH_CACHE (default
./cache); --no-cache bypasses it.  Parallelism across primes is
orchestrated here and only here (--jobs, checked for every subcommand);
the library itself stays sequential and schedule-free.

Each subcommand imports the modules it runs when it runs, and importing
this module loads only cyarith.errors: `count` never loads zeta or the
cache, `zeta` never loads hecke or cft, and a process pays to compile only
what its subcommand uses.  No process loads dataclasses (the records are
plain __slots__ classes, cyarith.record), logging loads only once a run
opens a cache directory, for the "warning: ..." line of a discarded entry,
and no run maps OpenSSL: the cache self-check uses the interpreter's own
sha256 (cyarith.cache._sha256).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import partial
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import CapacityError, InvariantViolationError, ValidationError

if TYPE_CHECKING:
    from .charsum import AlphaTuple
    from .counting import DiagonalVariety

CACHE_ENV = "CYARITH_CACHE"


# -- inputs ------------------------------------------------------------------------


def _ints(raw: str, what: str, sep: str = ",") -> tuple[int, ...]:
    """The integers of raw split at sep; what names the value in the error."""
    try:
        return tuple(int(t) for t in raw.split(sep))
    except ValueError:
        raise ValidationError(f"cannot parse {what} {raw!r}")


def _variety(args) -> DiagonalVariety:
    """The variety of either --exponents or the (degree, dim) pair."""
    from .counting import DiagonalVariety
    if args.exponents:
        if args.degree is not None:
            raise ValidationError("give either --exponents or -d/--degree, not both")
        exps = _ints(args.exponents, "exponent vector")
        if args.dim is not None and len(exps) != args.dim + 2:
            raise ValidationError(
                f"exponent count {len(exps)} inconsistent with dimension {args.dim} "
                f"(need n+2 = {args.dim + 2})")
        return DiagonalVariety(exps)
    if args.degree is None:
        raise ValidationError("variety spec required: -d DEGREE -n DIM or --exponents")
    if args.dim is None:
        raise ValidationError("-d/--degree needs -n/--dim")
    return DiagonalVariety((args.degree,) * (args.dim + 2))


def _parse_primes(spec: str | None) -> tuple[tuple[int, ...], bool]:
    """Prime list "11,31" (strict: non-primes and repeats refused) or range
    "2..50" (non-primes and bad primes silently skipped).  Returns (primes,
    strict)."""
    from .ffield import is_prime
    if not spec:
        raise ValidationError("at least one prime required (-p)")
    if ".." in spec:
        ends = _ints(spec, "prime range", "..")
        if len(ends) != 2 or not 2 <= ends[0] <= ends[1]:
            raise ValidationError(f"empty or invalid prime range {spec!r}")
        return tuple(p for p in range(ends[0], ends[1] + 1) if is_prime(p)), False
    primes = _ints(spec, "prime list")
    for i, p in enumerate(primes):
        if not is_prime(p):
            raise ValidationError(f"{p} is not prime")
        if p in primes[:i]:
            raise ValidationError(f"p={p} is listed more than once")
    return primes, True


def _good_primes(v: DiagonalVariety, spec: str | None) -> tuple[list[int], list[int]]:
    """The primes of a -p spec where v has good reduction, and the bad ones
    a range skips; a bad prime in a strict list is an error."""
    primes, strict = _parse_primes(spec)
    good: list[int] = []
    skipped: list[int] = []
    for p in primes:    # already proved prime: only the exponents decide
        (skipped if any(n % p == 0 for n in v.exponents) else good).append(p)
    if strict and skipped:
        raise ValidationError(
            f"p={skipped[0]} divides an exponent of {v.exponents} (bad reduction)")
    return good, skipped


def _jobs(raw: str) -> int:
    """The --jobs worker count, refused below 1."""
    try:
        jobs = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}")
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {jobs}")
    return jobs


def _cache_dir(args) -> Path | None:
    """The factor cache directory, or None under --no-cache.  A run that
    opens one sends the cache's warnings (a discarded entry) to stderr as
    "warning: ...", and only such a run loads logging."""
    if args.no_cache:
        return None
    import logging
    logging.addLevelName(logging.WARNING, "warning")
    logging.basicConfig(format="%(levelname)s: %(message)s")
    return Path(args.cache or os.environ.get(CACHE_ENV) or "cache")


# -- output ------------------------------------------------------------------------


def _fmt(args, default: str, *others: str) -> str:
    """The output format asked for, or default when none is; a format the
    command cannot print (not default or one of others) is refused."""
    chosen = [f for f in ("json", "csv", "table") if getattr(args, f, False)]
    if len(chosen) > 1:
        raise ValidationError("pick at most one of --json / --csv / --table")
    fmt = chosen[0] if chosen else default
    if fmt not in (default, *others):
        raise ValidationError(f"--{fmt} is not available here; use "
                              + " / ".join(f"--{f}" for f in (default, *others)))
    return fmt


OUT_BATCH = 1 << 16     # bytes per write: under PYTHONUNBUFFERED each write is a system call


class _Row:
    """A file for csv.writer whose write returns its text: writerow returns the row."""
    write = str


def _write(stream, pieces) -> None:
    """Write the text pieces to stream in runs of at least OUT_BATCH bytes,
    the last excepted; held encoded, so that many small pieces cost no more."""
    buf = bytearray()
    for piece in pieces:
        buf += piece.encode()
        if len(buf) >= OUT_BATCH:
            stream.write(buf.decode())
            buf.clear()
    if buf:
        stream.write(buf.decode())


def _emit(args, fmt: str, payload: dict, csv_rows=(), table=()) -> None:
    """Write payload as JSON, the rows of csv_rows (header row first) as
    CSV, or the lines of table, to --out or stdout.  Only the format asked
    for is iterated, and its text leaves in OUT_BATCH runs as it is made,
    so no run holds its whole output."""
    if fmt == "json":
        if not args.deterministic:
            from datetime import datetime, timezone
            payload = {**payload, "generated_at":
                       datetime.now(timezone.utc).isoformat(timespec="seconds")}
        pieces = chain(json.JSONEncoder(indent=2, allow_nan=False).iterencode(payload), "\n")
    elif fmt == "csv":
        import csv
        pieces = map(csv.writer(_Row, lineterminator="\n").writerow, csv_rows)
    else:
        pieces = (line + "\n" for line in table)
    if not args.out:
        return _write(sys.stdout, pieces)
    try:
        with open(args.out, "w") as stream:
            _write(stream, pieces)
    except OSError as exc:
        raise ValidationError(f"cannot write --out {args.out}: {exc}") from exc


# -- subcommand: count ---------------------------------------------------------------


def _cmd_count(args) -> None:
    from .counting import count_projective
    fmt = _fmt(args, "table", "json", "csv")
    v = _variety(args)
    good, skipped = _good_primes(v, args.prime)
    if not good:
        raise ValidationError("no good primes in the requested set")
    ext = args.extension
    rows = [{"p": p, "r": ext, "q": p**ext, "projective_points": str(n),
             "affine_points": str(1 + (p**ext - 1) * n)}
            for p in good for n in [count_projective(v, p, ext)]]
    payload = {"exponents": list(v.exponents),
               "dimension": v.complex_dim,
               "calabi_yau": v.is_calabi_yau,
               "skipped_bad_primes": skipped,
               "counts": rows}
    header = ["p", "r", "q", "projective_points", "affine_points"]
    table = chain([f"variety {v.exponents}  dim {v.complex_dim}  "
                   f"CY {'yes' if v.is_calabi_yau else 'no'}"],
                  (f"  q = {r['q']:<8d} projective {r['projective_points']:>16s}  "
                   f"affine {r['affine_points']}" for r in rows),
                  [f"  skipped bad primes: {skipped}"] if skipped else ())
    _emit(args, fmt, payload, chain([header], ([r[k] for k in header] for r in rows)), table)


# -- subcommand: jacobi --------------------------------------------------------------


def _parse_alpha(args, exps: tuple[int, ...]) -> AlphaTuple | None:
    from .charsum import AlphaTuple
    if not args.alpha:
        return None
    nums = _ints(args.alpha, "alpha")
    alpha = AlphaTuple(nums, math.lcm(*exps) if args.den is None else args.den)
    if len(nums) != len(exps) or any(n % d for d, n in zip(alpha.entry_denominators(), exps)):
        raise ValidationError(f"alpha {args.alpha!r} is not in the degree set of {exps}")
    return alpha


def _cmd_jacobi(args) -> None:
    from .charsum import full_alpha_set, jacobi_sums, ord_m
    from .cyclo import CycInt
    fmt = _fmt(args, "json", "csv", "table")
    v = _variety(args)
    good, skipped = _good_primes(v, args.prime)
    if len(good) != 1 or skipped:
        raise ValidationError("jacobi wants exactly one good prime")
    p = good[0]
    single = _parse_alpha(args, v.exponents)
    r = args.extension
    if r == 1:
        # characters of conductor m need m | q - 1; lift to the residue degree
        r = ord_m(p, single.conductor if single else math.lcm(*v.exponents))
    q = p**r
    if single is not None:
        alphas = [single]
    else:
        aset = full_alpha_set(v, p)
        alphas = [o[0] for o in aset.orbits] if args.orbits else list(aset.tuples)
    entries = []
    for a, j in zip(alphas, jacobi_sums((p, r), alphas)):
        # Weil's bound, exactly: |J|^2 = q^{s-2} for s nonzero entries
        w = len(a.nums) - 2
        if j * j.conj() != CycInt.from_int(j.m, q ** w):
            raise InvariantViolationError(f"|J|^2 != {q}^{w} for alpha {a.nums}/{a.den}")
        z = j.embed(1)
        entries.append({"alpha": list(a.nums), "den": a.den,
                        "conductor": a.conductor,
                        "coefficients": [str(c) for c in j.coeffs],
                        "embedding": {"re": z.real, "im": z.imag},
                        "norm_check": True})
    payload = {"exponents": list(v.exponents), "p": p, "q": q,
               "orbit_representatives_only": bool(args.orbits),
               "jacobi_sums": entries}
    csv_rows = chain([["alpha", "den", "re", "im", "norm_check"]],
                     ([";".join(str(n) for n in e["alpha"]), e["den"],
                       e["embedding"]["re"], e["embedding"]["im"], e["norm_check"]]
                      for e in entries))
    table = chain([f"p = {p}, q = {q}, {len(entries)} sums"],
                  (f"  {tuple(e['alpha'])}/{e['den']}  ~ "
                   f"{e['embedding']['re']:+.6f}{e['embedding']['im']:+.6f}i  norm ok"
                   for e in entries))
    _emit(args, fmt, payload, csv_rows, table)


# -- subcommand: zeta ---------------------------------------------------------------


def _zeta_result(exps: tuple[int, ...], cap: int | None, predict: int,
                 cache_dir: Path | None, p: int) -> dict:
    """One prime's worth of zeta JSON; module-level so workers can pickle it."""
    from . import cache
    from .counting import DiagonalVariety
    from .zeta import predicted_count
    v = DiagonalVariety(exps)
    lf = cache.local_factor(cache_dir, v, p, cap)   # RH and FE checked in building it
    out = {"p": p, "degree": lf.full_degree, "coefficients": [str(c) for c in lf.coeffs],
           "rh_pass": True, "functional_sign": lf.sign, "predicted_counts": {}}
    if lf.is_exact:
        out["predicted_counts"] = {str(r): str(predicted_count(lf, r))
                                   for r in range(1, predict + 1)}
    else:
        out["precision"] = lf.precision
    return out


def _cmd_zeta(args) -> None:
    fmt = _fmt(args, "table", "json", "csv")
    v = _variety(args)
    good, skipped = _good_primes(v, args.prime)
    if not good:
        raise ValidationError("no good primes in the requested set")
    if args.predict < 0:
        raise ValidationError(f"--predict must be at least 0, got {args.predict}")
    job = partial(_zeta_result, v.exponents, args.max_root_field, args.predict,
                  _cache_dir(args))
    width = min(args.jobs, len(good))
    try:
        if width > 1:
            # imported here: a serial run need not load multiprocessing (~20 ms)
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=width, initializer=sys.set_int_max_str_digits,
                                     initargs=(0,)) as pool:
                results = list(pool.map(job, good))
        else:
            results = [job(p) for p in good]
    except CapacityError as exc:
        if exc.degree == 1:         # truncation skips extension fields, never F_p
            raise
        raise ValidationError(
            f"{exc}; pass --max-root-field to truncate past large extension fields")
    payload = {"exponents": list(v.exponents),
               "dimension": v.complex_dim,
               "skipped_bad_primes": skipped,
               "results": results}
    csv_rows = chain([["p", "degree", "rh_pass", "functional_sign", "coefficients"]],
                     ([r["p"], r["degree"], r["rh_pass"], r["functional_sign"],
                       ";".join(r["coefficients"])] for r in results))

    def table():
        yield f"variety {v.exponents}  middle cohomology degree {results[0]['degree']}"
        for r in results:
            sign = r["functional_sign"]
            yield (f"  p = {r['p']:<6d} rh {'pass' if r['rh_pass'] else 'FAIL'}  "
                   f"sign {sign if sign is not None else '?'}  "
                   f"c1 = {r['coefficients'][1] if len(r['coefficients']) > 1 else '-'}")
            for rr, cnt in sorted(r["predicted_counts"].items(), key=lambda kv: int(kv[0])):
                yield f"      N_{rr} = {cnt}"
        if skipped:
            yield f"  skipped bad primes: {skipped}"
    _emit(args, fmt, payload, csv_rows, table())


# -- subcommands: lseries, hecke ------------------------------------------------------


def _dirichlet_fmt(args) -> str:
    """CSV (the default), JSON or table; CSV has no room for --eval-at, so
    the pair is refused before anything is computed."""
    fmt = _fmt(args, "csv", "json", "table")
    if fmt == "csv" and args.eval_at is not None:
        raise ValidationError("--eval-at needs --json or --table")
    return fmt


def _emit_dirichlet(args, fmt: str, coeffs, head: dict, title: str) -> None:
    """a_1..a_cutoff as CSV, JSON (head, the coefficients and the --eval-at
    partial sum) or a table of the nonzero a_n."""
    a = coeffs.values
    payload = {**head, "coefficients": [str(an) for an in a]} if fmt == "json" else head
    table = chain([title], (f"  a_{n} = {an}" for n, an in enumerate(a, 1) if an))
    if args.eval_at is not None:
        from .hecke import partial_sum_eval
        res = partial_sum_eval(coeffs, args.eval_at)
        tb = res.tail_bound if math.isfinite(res.tail_bound) else None
        payload["partial_sum"] = {"s": res.s, "value": {"re": res.value, "im": 0.0},
                                  "tail_bound": tb}
        table = chain(table, [f"  sum a_n n^-s at s = {res.s}: {res.value:.6f} "
                              f"(tail <= {'unbounded' if tb is None else f'{tb:.3g}'})"])
    _emit(args, fmt, payload, chain([["n", "a_n"]], enumerate(a, 1)), table)


def _cmd_lseries(args) -> None:
    from .hecke import dirichlet_coefficients
    fmt = _dirichlet_fmt(args)
    v = _variety(args)
    if args.cutoff is None:
        raise ValidationError("lseries needs --cutoff")
    coeffs = dirichlet_coefficients(v, args.cutoff)
    head = {"exponents": list(v.exponents),
            "cutoff": args.cutoff,
            "weight": coeffs.weight,
            "bad_primes": list(coeffs.bad_primes),
            "omitted_primes": list(coeffs.omitted_primes)}
    _emit_dirichlet(args, fmt, coeffs, head,
                    f"L-series of {v.exponents}, weight {coeffs.weight}, "
                    f"n <= {args.cutoff}, bad primes {list(coeffs.bad_primes)}")


def _cmd_hecke(args) -> None:
    from .hecke import HeckeCharacter, dirichlet_coefficients
    fmt = _dirichlet_fmt(args)
    if args.cutoff is None:
        raise ValidationError("hecke needs --cutoff")
    chi = HeckeCharacter(args.conductor, _ints(args.a, "exponent vector"))
    coeffs = dirichlet_coefficients(chi, args.cutoff)
    head = {"conductor": chi.m,
            "a": list(chi.a),
            "weight": chi.weight,
            "cutoff": args.cutoff,
            "bad_primes": list(coeffs.bad_primes),
            "omitted_primes": list(coeffs.omitted_primes),
            "split_primes": [p for p, _ in coeffs.included_primes]}
    _emit_dirichlet(args, fmt, coeffs, head,
                    f"Hecke character m = {chi.m}, a = {chi.a}, weight {chi.weight}")


# -- subcommand: match ---------------------------------------------------------------


def _cmd_match(args) -> None:
    from . import cache
    from .hecke import match_hasse_weil
    fmt = _fmt(args, "table", "json")
    v = _variety(args)
    primes, strict = _parse_primes(args.prime)
    m = math.lcm(*v.exponents)
    # a range keeps the primes that split totally in Q(mu_m): p = 1 mod m
    skipped = [] if strict else [p for p in primes if p % m != 1]
    primes = [p for p in primes if p not in skipped]
    if not primes:
        raise ValidationError(
            f"no split primes in the requested set; match needs p = 1 mod {m}")
    cache_dir = _cache_dir(args)
    reports = [match_hasse_weil(v, p, cache.local_factor(cache_dir, v, p)) for p in primes]
    results = [{"p": rep.p, "m": rep.m, "ideals": rep.ideals, "orbit_reps": rep.orbit_reps,
                "multiset_size": rep.multiset_size, "matched": True, "sign": 1}
               for rep in reports]

    def table():
        yield f"variety {v.exponents}: zeta reciprocal roots vs Hecke values"
        for r in results:
            # ideals x orbits = values fails where a class is smaller than phi(m)
            x, eq = ((" x ", " = ") if r["ideals"] * r["orbit_reps"] == r["multiset_size"]
                     else (", ", ", "))
            yield (f"  p = {r['p']:<6d} {r['ideals']} ideals{x}{r['orbit_reps']} orbits"
                   f"{eq}{r['multiset_size']} values  matched, sign +1")
        if skipped:
            yield f"  skipped bad or non-split primes: {skipped}"
    _emit(args, fmt, {"exponents": list(v.exponents), "results": results}, table=table())


# -- subcommand: cyclo ---------------------------------------------------------------


def _cmd_cyclo(args) -> None:
    from .cyclo import cyclotomic_unit, delta_determinant, hecke_weight, s_element
    actions = [name for name in ("units", "delta", "s_element") if getattr(args, name)]
    if len(actions) != 1:
        raise ValidationError("pick exactly one of --units / --delta / --s-element")
    action = actions[0]
    fmt = _fmt(args, "json", "table")
    m = args.conductor

    if action == "units":
        if m is None:
            raise ValidationError("--units needs -m/--conductor")
        if m < 2:
            raise ValidationError("conductor must be at least 2")
        units = [{"j": j, "coefficients": [str(c) for c in exact.coeffs], "modulus": numeric}
                 for j in range(2, m) if math.gcd(j, m) == 1
                 for exact, numeric in [cyclotomic_unit(m, j)]]
        payload = {"conductor": m, "units": units}
        table = chain([f"cyclotomic units theta_j of conductor {m}"],
                      (f"  j = {u['j']:<4d} |theta_j| = {u['modulus']:.12f}" for u in units))
    elif action == "delta":
        if args.prime is None:
            raise ValidationError("--delta needs -p")
        primes, strict = _parse_primes(args.prime)
        # a range skips the primes delta_determinant cannot take
        skipped = [] if strict else [p for p in primes if p < 5]
        primes = [p for p in primes if p not in skipped]
        if not primes:
            raise ValidationError("no prime p >= 5 in the requested range")
        rows = [{"p": p, "determinant": delta_determinant(p)} for p in primes]
        payload = {"skipped_primes": skipped, "delta_determinants": rows}
        table = chain((f"  p = {r['p']:<6d} |Delta| = {r['determinant']:.12e}" for r in rows),
                      [f"  skipped primes below 5: {skipped}"] if skipped else ())
    else:
        if m is None or not args.a:
            raise ValidationError("--s-element needs -m/--conductor and --a")
        a = _ints(args.a, "exponent vector")
        # n_sigma + n_conj(sigma) of S(a): hecke's weight, plus 2 when sum(a) = 0 mod m
        payload = {"conductor": m, "a": list(a),
                   "terms": [{"sigma": ell, "coefficient": c}
                             for ell, c in s_element(a, m).terms],
                   "weight": hecke_weight(a, m)}
        table = chain([f"S(a) for a = {a} mod {m}, S(a) weight {payload['weight']} "
                       f"(n_sigma + n_conj(sigma))"],
                      (f"  sigma_{t['sigma']}: {t['coefficient']}" for t in payload["terms"]))
    _emit(args, fmt, payload, table=table)


# -- subcommand: cft ---------------------------------------------------------------

# the output formats of each action, the default first
CFT_FORMATS = {"spectrum": ("csv", "json", "table"),
               "check": ("json", "table"),
               "fusion": ("json",),
               "fusion_field": ("json", "table"),
               "gepner": ("json", "table")}


def _cmd_cft(args) -> None:
    from . import cft
    actions = [n for n in CFT_FORMATS if getattr(args, n)]
    if len(actions) != 1:
        raise ValidationError(
            "pick exactly one of --spectrum / --check / --fusion / --fusion-field / --gepner")
    action = actions[0]
    fmt = _fmt(args, *CFT_FORMATS[action])
    k = args.level
    if k is None and action != "gepner":
        raise ValidationError("cft needs --level for this action")
    csv_rows = table = ()

    if action == "gepner":
        levels = cft.gepner_levels(target_c=args.central_charge,
                                   max_factors=args.max_factors)
        payload = {"central_charge": args.central_charge, "max_factors": args.max_factors,
                   "count": len(levels), "levels": [list(t) for t in levels]}
        table = chain([f"{len(levels)} level vectors with c = {args.central_charge}"],
                      ("  " + " ".join(str(n) for n in t) for t in levels))
    elif action == "spectrum":
        md = cft.modular_data(k)
        rows = [[e.l, e.q, e.s,
                 e.delta.numerator, e.delta.denominator,
                 e.charge.numerator, e.charge.denominator]
                for e in cft.n2_spectrum(k).entries]
        csv_rows = chain([["l", "q", "s", "delta_num", "delta_den", "Q_num", "Q_den"]], rows)
        payload = {"level": k,
                   "central_charge": {"num": md.c.numerator, "den": md.c.denominator},
                   "entries": [{"l": r[0], "q": r[1], "s": r[2],
                                "delta": {"num": r[3], "den": r[4]},
                                "charge": {"num": r[5], "den": r[6]}}
                               for r in rows]}
        table = chain([f"N=2 spectrum at level {k}, c = {md.c}"],
                      (f"  l={r[0]:<3d} q={r[1]:<4d} s={r[2]:<3d} "
                       f"Delta={r[3]}/{r[4]}  Q={r[5]}/{r[6]}" for r in rows))
    elif action == "fusion":
        payload = {"level": k, "N": cft.verlinde_fusion(k)}
    elif action == "fusion_field":
        rep = cft.fusion_field_match(k)    # raises unless every unit matches
        payload = {"level": rep.k, "conductor": rep.conductor, "all_match": True,
                   "entries": [{"l": e.l, "value": e.value, "unit_index": e.unit_index,
                                "abs_err": e.abs_err} for e in rep.entries]}
        table = chain([f"level {k}: quantum dimensions vs units of conductor {rep.conductor}"],
                      (f"  l = {e.l:<3d} d = {e.value:.12f} " + (
                       f"= theta_{e.unit_index} (err {e.abs_err:.2e})" if e.unit_index
                       else "(gcd(l+1, k+2) > 1, no unit)") for e in rep.entries))
    elif args.check == "kr":
        residual = cft.check_kr_identity(k)    # raises past cft.IDENTITY_TOL
        payload = {"level": k, "identity": "kr", "residual": residual, "pass": True}
        table = [f"level {k} kr: residual {residual:.3e}  pass True"]
    else:
        if args.m is None:
            raise ValidationError("--check kn needs --m")
        res = cft.check_kn_identity(k, args.m)   # raises past cft.IDENTITY_TOL
        payload = {"level": k, "m": args.m, "identity": "kn",
                   "residual": res.residual,
                   "vanishing": list(res.vanishing),
                   "lhs": res.lhs, "rhs": res.rhs,
                   "pass": None if res.residual is None else True}
        line = (f"skipped, Q vanishes at l = {payload['vanishing']}"
                if res.residual is None
                else f"residual {res.residual:.3e}  pass True")
        table = [f"level {k} kn m = {args.m}: {line}"]
    _emit(args, fmt, payload, csv_rows, table)


# -- parser ---------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse that reports flag problems as ValidationError (exit 1)."""

    def error(self, message):
        raise ValidationError(message)


def _build_parser() -> _Parser:
    top = _Parser(prog="cyarith",
                  description="Arithmetic of diagonal Calabi-Yau hypersurfaces "
                              "and SU(2) WZW data.")
    sub = top.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    common = argparse.ArgumentParser(add_help=False)
    out = common.add_argument_group("output")
    out.add_argument("--json", action="store_true", help="JSON output")
    out.add_argument("--csv", action="store_true", help="CSV output")
    out.add_argument("--table", action="store_true", help="plain table output")
    out.add_argument("--out", metavar="PATH", help="write to a file instead of stdout")
    out.add_argument("--deterministic", action="store_true",
                     help="suppress the timestamp field for byte-identical reruns")
    run = common.add_argument_group("execution")
    run.add_argument("--cache", metavar="DIR",
                     help=f"cache directory (default ${CACHE_ENV} or ./cache)")
    run.add_argument("--no-cache", action="store_true", help="bypass the factor cache")
    run.add_argument("--jobs", type=_jobs, default=os.cpu_count() or 1, metavar="W",
                     help="parallel workers across primes for zeta (default the CPU "
                          "count); the other subcommands run serially")

    variety = argparse.ArgumentParser(add_help=False)
    vg = variety.add_argument_group("variety")
    vg.add_argument("-d", "--degree", type=int, help="Fermat degree")
    vg.add_argument("-n", "--dim", type=int, help="complex dimension")
    vg.add_argument("--exponents", metavar="N1,N2,...",
                    help="exponent vector of a diagonal hypersurface")

    prime = argparse.ArgumentParser(add_help=False)
    prime.add_argument("-p", "--prime", metavar="P[,P...] or A..B",
                       help="prime list (strict) or range (bad primes skipped)")

    p_count = sub.add_parser("count", parents=[common, variety, prime],
                             help="rational point counts over F_q")
    p_count.add_argument("-r", "--extension", type=int, default=1,
                         help="field extension degree (default 1)")

    p_jac = sub.add_parser("jacobi", parents=[common, variety, prime],
                           help="Jacobi sums of the degree set")
    p_jac.add_argument("-r", "--extension", type=int, default=1)
    p_jac.add_argument("--alpha", metavar="A1,A2,...",
                       help="single character tuple (numerators over --den)")
    p_jac.add_argument("--den", type=int, help="denominator for --alpha")
    p_jac.add_argument("--orbits", action="store_true",
                       help="emit Frobenius orbit representatives only")

    p_zeta = sub.add_parser("zeta", parents=[common, variety, prime],
                            help="middle local zeta factors")
    p_zeta.add_argument("--max-root-field", type=int, metavar="Q",
                        help="skip orbits needing fields beyond Q (truncates)")
    p_zeta.add_argument("--predict", type=int, default=3, metavar="R",
                        help="predict point counts over F_{p^r}, r <= R (default 3)")

    p_ls = sub.add_parser("lseries", parents=[common, variety],
                          help="Hasse-Weil Dirichlet coefficients a_n")
    p_ls.add_argument("--cutoff", type=int, metavar="N", help="largest index n")
    p_ls.add_argument("--eval-at", type=float, metavar="S",
                      help="partial sum of a_n n^-s and a tail bound (--json, --table)")

    p_hk = sub.add_parser("hecke", parents=[common],
                          help="Jacobi-sum Hecke character coefficients")
    p_hk.add_argument("-m", "--conductor", type=int, required=True)
    p_hk.add_argument("--a", required=True, metavar="A1,A2,...",
                      help="character exponent vector mod m")
    p_hk.add_argument("--cutoff", type=int, metavar="N")
    p_hk.add_argument("--eval-at", type=float, metavar="S")

    p_cy = sub.add_parser("cyclo", parents=[common],
                          help="cyclotomic units, determinants, S(a) tables")
    p_cy.add_argument("-m", "--conductor", type=int)
    p_cy.add_argument("-p", "--prime", metavar="P[,P...]")
    p_cy.add_argument("--units", action="store_true",
                      help="table of theta_j with numeric moduli")
    p_cy.add_argument("--delta", action="store_true",
                      help="truncated unit determinant at p")
    p_cy.add_argument("--s-element", dest="s_element", action="store_true",
                      help="group-ring element S(a) and its weight n_sigma + "
                           "n_conj(sigma), 2 above hecke's when sum(a) = 0 mod m")
    p_cy.add_argument("--a", metavar="A1,A2,...", help="exponent vector for --s-element")

    p_cft = sub.add_parser("cft", parents=[common],
                           help="SU(2) WZW spectra, fusion, identities")
    p_cft.add_argument("--level", type=int, help="level k")
    p_cft.add_argument("--spectrum", action="store_true",
                       help="N=2 primary spectrum (l, q, s, Delta, Q)")
    p_cft.add_argument("--check", choices=("kr", "kn"),
                       help="central charge (kr) or dilogarithm (kn) sum rule")
    p_cft.add_argument("--m", type=int, help="row index for --check kn")
    p_cft.add_argument("--fusion", action="store_true",
                       help="Verlinde fusion coefficients")
    p_cft.add_argument("--fusion-field", dest="fusion_field", action="store_true",
                       help="match quantum dimensions against cyclotomic units")
    p_cft.add_argument("--gepner", action="store_true",
                       help="enumerate level vectors with fixed central charge")
    p_cft.add_argument("--central-charge", type=int, default=9,
                       help="target central charge for --gepner (default 9)")
    p_cft.add_argument("--max-factors", type=int, default=9,
                       help="largest tensor length for --gepner (default 9)")

    sub.add_parser("match", parents=[common, variety, prime],
                   help="zeta reciprocal roots vs Hecke Jacobi sums")

    return top


def run(argv=None) -> int:
    """Parse and execute; returns the process exit code.  Coefficients can pass
    Python's 4,300-digit int/str limit, lifted while this runs and in workers."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        args = _build_parser().parse_args(argv)
        globals()[f"_cmd_{args.subcommand}"](args)
        return 0
    except SystemExit as exc:       # --help and friends
        code = exc.code or 0
        return 0 if code == 0 else 1
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantViolationError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    finally:
        sys.set_int_max_str_digits(limit)


def console_entry() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    console_entry()
