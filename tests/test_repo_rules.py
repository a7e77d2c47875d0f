"""Module-boundary rules of the source tree, checked line by line.

Each row is (files scanned, pattern, files allowed to match), with paths
relative to src/; the files are one glob or a tuple of them, each of which
must match.  A rule fails on any line of a scanned `.py` file outside its
allow-list that the pattern finds."""

import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
CLI = ("cyarith/cli.py", "cyarith/commands/*.py")     # the front end and its subcommands

RULES = {
    # only ffield and charsum's kernel build a field table
    "make-field": ("**/*.py", r"make_field\(", {"cyarith/ffield.py", "cyarith/charsum.py"}),
    # brute-force oracles live in tests/
    "oracles": ("**/*.py", r"def [A-Za-z0-9_]*_direct\b|DIRECT_[A-Z0-9_]*_BUDGET", set()),
    # checks live where values are computed, not in the CLI
    "cli-tolerance": (CLI, r"^[A-Z0-9_]*_TOL\b", set()),
    "cli-invariants": (CLI, r"raise InvariantViolationError", set()),
    # removed names stay gone
    "rh-report": ("**/*.py", r"def check_riemann_hypothesis\b|class RHReport\b", set()),
    "table-bounds": ("**/*.py", r"\b(PRIME_FIELD_BOUND|EXTENSION_FIELD_BOUND|table_bound"
                                r"|_stickelberger_exponents)\b", set()),
    "congruent-zeta": ("**/*.py", r"\bCongruentZeta\b|\bcongruent_zeta\b|CYARITH_JOBS", set()),
    "fusion-tolerances": ("**/*.py", r"FUSION_ACCEPT|UNIT_TOL", set()),
    # removed names stay gone: characters are listed by charsum.degree_set
    # alone, and filtered by galois_heads and frobenius_heads
    "alpha-set": ("**/*.py", r"\b(AlphaSet|build_alpha_set|full_alpha_set|is_good_prime)\b",
                  set()),
    "orbit-partition": ("cyarith/charsum.py", r"\b_assemble\b", set()),
    # the labelled ideals above a split prime are the tests' oracle
    "ideal-layer": ("**/*.py", r"\bSplitPrimeIdeal\b|split_prime_ideals|power_residue_char"
                               r"|splitting_data|ideal_jacobi_sums?\b", set()),
    # only cache.py loads, stores and names cache entries
    "cache-entries": ("**/*.py", r"cache\.(load|store|entry_path)\(", {"cyarith/cache.py"}),
    # one factor builder: zeta.galois_factor sums Galois-class rows and
    # expands them for every factor; counts sum the same rows' traces
    "unit-sums": ("**/*.py", r"unit_sums\(",
                  {"cyarith/charsum.py", "cyarith/zeta.py", "cyarith/counting.py"}),
    "expand-roots": ("**/*.py", r"expand_roots\(", {"cyarith/zeta.py"}),
    # a tuple's row is charsum's own: other modules read galois_heads' rows
    "private-row": ("**/*.py", r"\b_row\b", {"cyarith/charsum.py"}),
    # only charsum decides which sums read a table
    "closed-form": ("**/*.py", r"in_closed_form\(", {"cyarith/charsum.py"}),
    # one table rule, raised only by ffield
    "capacity-error": ("**/*.py", r"raise CapacityError", {"cyarith/ffield.py"}),
    # records are __slots__ classes on cyarith.record: no process loads dataclasses
    "dataclasses": ("**/*.py", r"^\s*(import\s+[\w., ]*\b|from\s+)dataclasses\b", set()),
    # logging and hashlib load where a cache entry is read or written, and
    # pathlib where a cache is opened, not at import; typing never loads
    # (TYPE_CHECKING = False guards the annotation-only imports)
    "eager-imports": ("**/*.py",
                      r"^(import\s+[\w., ]*\b|from\s+)(logging|hashlib|typing|pathlib)\b",
                      set()),
    # the cache self-check uses the interpreter's own sha256: hashlib (and
    # with it OpenSSL) only as the fallback of a build that lacks it
    "hashlib": ("**/*.py", r"^\s*(import\s+[\w., ]*\b|from\s+)hashlib\b",
                {"cyarith/cache.py"}),
    # the CLI writes its output in batches as it is made, never as one string
    "whole-output": (CLI, r"json\.dumps\(|getvalue\(|write_text\(", set()),
}


@pytest.mark.parametrize("rule", sorted(RULES))
def test_repo_rule(rule):
    files, pattern, allowed = RULES[rule]
    globs = (files,) if isinstance(files, str) else files
    assert all(any(SRC.glob(g)) for g in globs)
    scanned = {path.relative_to(SRC).as_posix(): path for g in globs for path in SRC.glob(g)}
    assert allowed <= scanned.keys()
    hits = [f"{name}:{no}: {line}" for name, path in sorted(scanned.items())
            if name not in allowed
            for no, line in enumerate(path.read_text().splitlines(), 1)
            if re.search(pattern, line)]
    assert not hits, "\n".join(hits)
