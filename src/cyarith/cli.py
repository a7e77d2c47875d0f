"""Command-line front end: the top-level parser, the dispatch and the exit codes.

Each subcommand is one module, cyarith.commands.<name>: add_arguments(parser)
declares its options and main(args) runs it, importing the library modules
it needs only then.  cyarith.commands.common declares the shared groups
beside the helpers that read them.  A run fills in only its subcommand's
parser and compiles this front end, common and that one handler (`--help`:
none); none of those imports cyarith.cli, which `python -m` runs as __main__.

Exit codes: 0 success, 1 validation error (bad flags, bad primes,
inconsistent variety spec), 2 invariant violation, meaning a mathematical
self-check failed mid-run.  The last one is the serious outcome.
"""

import argparse
import sys
from importlib import import_module

from .errors import InvariantViolationError, ValidationError

SUBCOMMANDS = {"count": "rational point counts over F_q",
               "jacobi": "Jacobi sums of the degree set",
               "zeta": "middle local zeta factors",
               "lseries": "Hasse-Weil Dirichlet coefficients a_n",
               "hecke": "Jacobi-sum Hecke character coefficients",
               "cyclo": "cyclotomic units, determinants, S(a) tables",
               "cft": "SU(2) WZW spectra, fusion, identities",
               "match": "zeta reciprocal roots vs Hecke Jacobi sums"}


class _Parser(argparse.ArgumentParser):
    """argparse that reports flag problems as ValidationError (exit 1)."""

    def error(self, message):
        raise ValidationError(message)


def run(argv=None) -> int:
    """Parse and execute; returns the process exit code.  Coefficients can pass
    Python's 4,300-digit int/str limit, lifted while this runs and in workers."""
    argv = sys.argv[1:] if argv is None else list(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        top = _Parser(prog="cyarith", description="Arithmetic of diagonal Calabi-Yau "
                                                  "hypersurfaces and SU(2) WZW data.")
        sub = top.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
        # the top level takes no option but -h: its first argument that is not
        # an option names the subcommand (argparse refuses `--` or `-5` before it)
        chosen = next((arg for arg in argv if not arg.startswith("-")), None)
        for name, summary in SUBCOMMANDS.items():
            parser = sub.add_parser(name, help=summary)
            if name == chosen:
                import_module(f"cyarith.commands.{name}").add_arguments(parser)
        args = top.parse_args(argv)
        import_module(f"cyarith.commands.{args.subcommand}").main(args)
        return 0
    except SystemExit as exc:       # --help and friends
        return 1 if exc.code else 0
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
