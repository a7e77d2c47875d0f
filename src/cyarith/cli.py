"""Command-line frontend tying the library together.

Subcommands map one-to-one onto the computational layers: rational point
counts, Jacobi sums, local zeta factors, Hasse-Weil Dirichlet coefficients,
Jacobi-sum Hecke characters, cyclotomic unit tables, the SU(2) WZW data, and
the zeta-root vs Hecke-value match.  Output goes to stdout (or --out) as
JSON, CSV, or a plain table, written in 64 KiB runs as it is made
(cyarith.commands.common).

Exit codes: 0 success, 1 validation error (bad flags, bad primes,
inconsistent variety spec), 2 invariant violation, meaning a mathematical
self-check failed mid-run.  The last one is the serious outcome.

Complete local zeta factors go through cyarith.cache.local_factor, one JSON
file per (exponent vector, prime) under --cache or CYARITH_CACHE (default
./cache); --no-cache bypasses it.  Parallelism across primes is
orchestrated by the CLI and only there (--jobs, checked for every
subcommand); the library itself stays sequential and schedule-free.

This module is the parser and the dispatch alone.  run imports the one
module of the subcommand it runs, cyarith.commands.<name>, which shares
only cyarith.commands.common, so a process compiles this front end, the
shared helpers and its own handler; no module there imports cyarith.cli,
which `python -m` runs as __main__.  A handler imports the library modules
it runs when it runs: `count` never loads zeta or the cache, `zeta` never
loads hecke or cft.  No process loads dataclasses (the records are plain
__slots__ classes, cyarith.record), logging loads only when a cache entry
is discarded, for its "warning: ..." line, and no run maps OpenSSL: the
cache self-check uses the interpreter's own sha256 (cyarith.cache._sha256).
"""

import argparse
import os
import sys
from importlib import import_module

from .errors import InvariantViolationError, ValidationError


def _jobs(raw: str) -> int:
    """The --jobs worker count, refused below 1."""
    try:
        jobs = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}")
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {jobs}")
    return jobs


class _Parser(argparse.ArgumentParser):
    """argparse that reports flag problems as ValidationError (exit 1)."""

    def error(self, message):
        raise ValidationError(message)


def _build_parser() -> _Parser:
    from .commands.common import CACHE_ENV
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
        import_module(f"cyarith.commands.{args.subcommand}").main(args)
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
