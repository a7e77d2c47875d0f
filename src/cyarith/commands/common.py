"""Input and output helpers of the CLI's subcommands, and the option groups they share.

Big integers are serialized as decimal strings in JSON so values survive any
double-precision consumer; a run holds them as ints and makes each string as
the encoder reaches it (Decimals).  A run builds only the format asked for,
and encodes and writes it in runs of OUT_BATCH (64 KiB) as it is made, never
as one string: `zeta -d 5 -n 3 -p 2..2000 --json` (14.6 MB) peaks at 23-24
MiB max-RSS, where holding every coefficient as a string took 33 MiB and the
one-string writer 87 MiB.
"""

from __future__ import annotations

import json
import math
import os
import sys
from argparse import ArgumentTypeError
from itertools import chain

from ..errors import ValidationError

TYPE_CHECKING = False    # true to type checkers; no run imports typing
if TYPE_CHECKING:
    from pathlib import Path

    from ..counting import DiagonalVariety

CACHE_ENV = "CYARITH_CACHE"


def ints(raw: str, what: str, sep: str = ",") -> tuple[int, ...]:
    """The integers of raw split at sep; what names the value in the error."""
    try:
        return tuple(int(t) for t in raw.split(sep))
    except ValueError:
        raise ValidationError(f"cannot parse {what} {raw!r}")


def variety(args) -> DiagonalVariety:
    """The variety of either --exponents or the (degree, dim) pair."""
    from ..counting import DiagonalVariety
    if args.exponents:
        if args.degree is not None:
            raise ValidationError("give either --exponents or -d/--degree, not both")
        exps = ints(args.exponents, "exponent vector")
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


def parse_primes(spec: str | None) -> tuple[tuple[int, ...], bool]:
    """Prime list "11,31" (strict: non-primes and repeats refused) or range
    "2..50" (non-primes and bad primes silently skipped).  Returns (primes,
    strict)."""
    from ..ffield import is_prime
    if not spec:
        raise ValidationError("at least one prime required (-p)")
    if ".." in spec:
        ends = ints(spec, "prime range", "..")
        if len(ends) != 2 or not 2 <= ends[0] <= ends[1]:
            raise ValidationError(f"empty or invalid prime range {spec!r}")
        return tuple(p for p in range(ends[0], ends[1] + 1) if is_prime(p)), False
    primes = ints(spec, "prime list")
    for i, p in enumerate(primes):
        if not is_prime(p):
            raise ValidationError(f"{p} is not prime")
        if p in primes[:i]:
            raise ValidationError(f"p={p} is listed more than once")
    return primes, True


def good_primes(v: DiagonalVariety, spec: str | None) -> tuple[list[int], list[int]]:
    """The primes of a -p spec where v has good reduction, and the bad ones
    a range skips; a bad prime in a strict list is an error."""
    primes, strict = parse_primes(spec)
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
        raise ArgumentTypeError(f"invalid int value: {raw!r}")
    if jobs < 1:
        raise ArgumentTypeError(f"must be at least 1, got {jobs}")
    return jobs


def add_arguments(parser, variety: bool = False, prime: bool = False) -> None:
    """The options the helpers here read: output (output_format, emit) and
    execution (cache_dir, zeta's workers) for every subcommand, then the
    variety group (variety) and -p (parse_primes) where asked."""
    out = parser.add_argument_group("output")
    out.add_argument("--json", action="store_true", help="JSON output")
    out.add_argument("--csv", action="store_true", help="CSV output")
    out.add_argument("--table", action="store_true", help="plain table output")
    out.add_argument("--out", metavar="PATH", help="write to a file instead of stdout")
    out.add_argument("--deterministic", action="store_true",
                     help="suppress the timestamp field for byte-identical reruns")
    run = parser.add_argument_group("execution")
    run.add_argument("--cache", metavar="DIR",
                     help=f"cache directory (default ${CACHE_ENV} or ./cache)")
    run.add_argument("--no-cache", action="store_true", help="bypass the factor cache")
    run.add_argument("--jobs", type=_jobs, default=os.cpu_count() or 1, metavar="W",
                     help="parallel workers across primes for zeta (default the CPU "
                          "count); the other subcommands run serially")
    if variety:
        group = parser.add_argument_group("variety")
        group.add_argument("-d", "--degree", type=int, help="Fermat degree")
        group.add_argument("-n", "--dim", type=int, help="complex dimension")
        group.add_argument("--exponents", metavar="N1,N2,...",
                           help="exponent vector of a diagonal hypersurface")
    if prime:
        parser.add_argument("-p", "--prime", metavar="P[,P...] or A..B",
                            help="prime list (strict) or range (bad primes skipped)")


def cache_dir(args) -> Path | None:
    """The factor cache directory, or None under --no-cache.  A discarded
    entry is then reported on stderr as "warning: ...": the cache calls
    _warning_lines just before it logs a discard, so only a run that
    discards loads logging."""
    if args.no_cache:
        return None
    from pathlib import Path

    from .. import cache
    cache.before_warning = _warning_lines
    return Path(args.cache or os.environ.get(CACHE_ENV) or "cache")


def _warning_lines(logging) -> None:
    logging.addLevelName(logging.WARNING, "warning")
    logging.basicConfig(format="%(levelname)s: %(message)s")


def output_format(args, default: str, *others: str) -> str:
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


class Row:
    """A file for csv.writer whose write returns its text: writerow returns the row."""
    write = str


class Decimals(tuple):
    """Integers that iterate as their decimal strings, each made as it is
    reached: the JSON encoder writes them as strings one at a time (it
    iterates a list to encode it), and ";".join of them makes one row, so
    no run holds the strings of more than one row.  Indexing gives the ints."""
    __slots__ = ()

    def __iter__(self):
        return map(str, tuple.__iter__(self))


def write(stream, pieces) -> None:
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


def emit(args, fmt: str, payload: dict, csv_rows=(), table=()) -> None:
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
        pieces = map(csv.writer(Row, lineterminator="\n").writerow, csv_rows)
    else:
        pieces = (line + "\n" for line in table)
    if not args.out:
        return write(sys.stdout, pieces)
    try:
        with open(args.out, "w") as stream:
            write(stream, pieces)
    except OSError as exc:
        raise ValidationError(f"cannot write --out {args.out}: {exc}") from exc


def dirichlet_format(args) -> str:
    """CSV (the default), JSON or table; CSV has no room for --eval-at, so
    the pair is refused before anything is computed."""
    fmt = output_format(args, "csv", "json", "table")
    if fmt == "csv" and args.eval_at is not None:
        raise ValidationError("--eval-at needs --json or --table")
    return fmt


def emit_dirichlet(args, fmt: str, coeffs, head: dict, title: str) -> None:
    """a_1..a_cutoff as CSV, JSON (head, the coefficients and the --eval-at
    partial sum) or a table of the nonzero a_n."""
    a = coeffs.values
    payload = {**head, "coefficients": Decimals(a)} if fmt == "json" else head
    table = chain([title], (f"  a_{n} = {an}" for n, an in enumerate(a, 1) if an))
    if args.eval_at is not None:
        from ..hecke import partial_sum_eval
        res = partial_sum_eval(coeffs, args.eval_at)
        tb = res.tail_bound if math.isfinite(res.tail_bound) else None
        payload["partial_sum"] = {"s": res.s, "value": {"re": res.value, "im": 0.0},
                                  "tail_bound": tb}
        table = chain(table, [f"  sum a_n n^-s at s = {res.s}: {res.value:.6f} "
                              f"(tail <= {'unbounded' if tb is None else f'{tb:.3g}'})"])
    emit(args, fmt, payload, chain([["n", "a_n"]], enumerate(a, 1)), table)
