"""What a process loads: the package resolves its names on first access, and
each CLI subcommand imports only the modules it runs.  Every check starts a
fresh interpreter, since this session has long since loaded everything; the
console rows run cyarith.cli as `python -m` does, console_entry included.
The interpreter starts with -S, the site directories put on its path by
hand: what a site's .pth files import at start-up (some load typing and
pathlib) is not the package's doing."""

import json
import os
import site
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def _modules_after(code: str, cwd: Path) -> set[str]:
    """sys.modules of a fresh interpreter that ran code."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH"),
                                         *site.getsitepackages()]))
    script = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    done = subprocess.run([sys.executable, "-S", "-c", script], cwd=cwd, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def _console(*argv: str) -> str:
    """`python -m cyarith.cli argv` as -m starts it, through runpy, with
    console_entry and its exit code 0."""
    return ("import runpy, sys\n"
            f"sys.argv = ['cyarith', *{list(argv)!r}]\n"
            "try:\n"
            "    runpy.run_module('cyarith.cli', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code")


def _cli(*argv: str) -> str:
    return f"from cyarith.cli import run\nassert run({list(argv)!r}) == 0"


# no run imports typing, and one that opens no cache no pathlib
NO_CACHE = {"typing", "pathlib"}
# a run whose sums are all in closed form builds no table
NO_TABLES = {"cyarith.tables", "numpy"}


@pytest.mark.parametrize("code, absent", [
    ("import cyarith.cli",
     {"cyarith.cache", "cyarith.zeta", "cyarith.hecke", "cyarith.cft", "logging",
      "dataclasses", "inspect", "datetime", "csv", "cyarith.commands", *NO_TABLES, *NO_CACHE}),
    (_cli("count", "-d", "5", "-n", "3", "-p", "11"),
     {"cyarith.zeta", "cyarith.cache", "cyarith.hecke", "cyarith.cft", *NO_TABLES, *NO_CACHE}),
    (_cli("count", "--exponents", "3,3,3", "-p", "2..71", "-r", "2"),
     {"cyarith.zeta", "cyarith.cache", "cyarith.hecke", "cyarith.cft", *NO_TABLES, *NO_CACHE}),
    (_cli("jacobi", "-d", "5", "-n", "3", "-p", "11", "--orbits"),
     {"cyarith.hecke", "cyarith.zeta", "cyarith.cache", "cyarith.cft", *NO_TABLES, *NO_CACHE}),
    (_cli("zeta", "-d", "5", "-n", "3", "-p", "2,3", "--no-cache", "--jobs", "1"),
     {"cyarith.hecke", "cyarith.cft", *NO_TABLES, *NO_CACHE}),
    (_cli("hecke", "-m", "5", "--a", "1,1,1,1", "--cutoff", "200"),
     {"cyarith.cache", "cyarith.cft", "hashlib", *NO_TABLES, *NO_CACHE}),
    (_cli("lseries", "-d", "5", "-n", "3", "--cutoff", "200"),
     {"cyarith.cache", "cyarith.cft", "hashlib", *NO_TABLES, *NO_CACHE}),
    (_cli("cft", "--spectrum", "--level", "40"),
     {"cyarith.zeta", "cyarith.cache", "cyarith.hecke", "numpy", *NO_CACHE}),
    (_cli("cft", "--fusion", "--level", "40"),
     {"cyarith.zeta", "cyarith.cache", "cyarith.hecke", "numpy", *NO_CACHE}),
    (_cli("cft", "--fusion-field", "--level", "40"),
     {"cyarith.zeta", "cyarith.cache", "cyarith.hecke", "numpy", *NO_CACHE}),
    (_cli("cft", "--check", "kr", "--level", "40"),
     {"cyarith.zeta", "cyarith.cache", "cyarith.hecke", "numpy", *NO_CACHE}),
], ids=["import", "count-quintic", "count", "jacobi", "zeta", "hecke", "lseries",
        "cft-spectrum", "cft-fusion", "cft-fusion-field", "cft-check-kr"])
def test_a_subcommand_loads_only_what_it_runs(tmp_path, code, absent):
    loaded = _modules_after(code, tmp_path)
    assert "cyarith.cli" in loaded
    assert not loaded & absent


def test_a_table_run_loads_the_table_method(tmp_path):
    # conductor 4 has no closed form: its sums are read off a table of F_5
    loaded = _modules_after(_cli("zeta", "--exponents", "4,4,4,4", "-p", "5", "--no-cache",
                                 "--jobs", "1"), tmp_path)
    assert NO_TABLES <= loaded


@pytest.mark.parametrize("argv, ran", [
    (["hecke", "-m", "5", "--a", "1,1,1,1", "--cutoff", "200"], "cyarith.hecke"),
    (["count", "--exponents", "3,3,3", "-p", "2..71", "-r", "2"], "cyarith.counting"),
    (["zeta", "--exponents", "3,3,3", "-p", "2..71", "--no-cache", "--jobs", "1"],
     "cyarith.cache"),
], ids=["hecke", "count", "zeta-no-cache"])
def test_a_console_run_loads_no_records_logging_or_openssl(tmp_path, argv, ran):
    # no dataclasses (nor the inspect it pulls in), logging only where a
    # cache entry is discarded, and hashlib nowhere
    loaded = _modules_after(_console(*argv), tmp_path)
    assert {"cyarith.errors", ran} <= loaded      # cyarith.cli ran as __main__
    assert not loaded & {"dataclasses", "inspect", "logging", "hashlib", "_hashlib"}


@pytest.mark.parametrize("warm", [False, True], ids=["zeta-cold", "match-warm"])
def test_a_cached_console_run_maps_no_openssl(tmp_path, warm):
    # the self-check hashes with the interpreter's own sha256, and only a
    # discard loads logging: a cold zeta stores the entry, and a warm match
    # on the same directory reads it back
    cache_dir = tmp_path / "cache"
    zeta = ["zeta", "-d", "5", "-n", "3", "-p", "11", "--cache", str(cache_dir)]
    entry = cache_dir / "v5-5-5-5-5_p11.json"
    if warm:
        _modules_after(_console(*zeta), tmp_path)
        stamp = entry.stat().st_mtime_ns
    argv = ["match", *zeta[1:]] if warm else zeta
    loaded = _modules_after(_console(*argv), tmp_path)
    assert "cyarith.cache" in loaded
    assert not loaded & {"hashlib", "_hashlib", "logging", *NO_TABLES}
    assert entry.exists() and (not warm or entry.stat().st_mtime_ns == stamp)


SUBCOMMANDS = {
    "count": ["-d", "5", "-n", "3", "-p", "11"],
    "jacobi": ["-d", "3", "-n", "1", "-p", "7"],
    "zeta": ["-d", "3", "-n", "1", "-p", "7", "--no-cache", "--jobs", "1"],
    "lseries": ["-d", "3", "-n", "1", "--cutoff", "50"],
    "hecke": ["-m", "5", "--a", "1,1,1,1", "--cutoff", "50"],
    "match": ["-d", "3", "-n", "1", "-p", "7", "--no-cache"],
    "cyclo": ["--units", "-m", "7"],
    "cft": ["--spectrum", "--level", "3"],
}


@pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
def test_a_console_run_compiles_one_handler(tmp_path, name):
    # the front end runs as __main__ and is never imported a second time as
    # cyarith.cli, and of the handler modules only the subcommand's own loads
    loaded = _modules_after(_console(name, *SUBCOMMANDS[name]), tmp_path)
    assert {f"cyarith.commands.{name}", "cyarith.commands.common"} <= loaded
    assert not loaded & {f"cyarith.commands.{other}" for other in SUBCOMMANDS if other != name}
    assert "cyarith.cli" not in loaded


LIBRARY = {f"cyarith.{name}" for name in
           ("counting", "charsum", "cyclo", "ffield", "zeta", "cache", "hecke", "cft")}


@pytest.mark.parametrize("argv, handlers", [
    (["--help"], set()),
    (["zeta", "--help"], {"cyarith.commands.zeta", "cyarith.commands.common"}),
], ids=["top", "zeta"])
def test_a_help_run_loads_no_library_module(tmp_path, argv, handlers):
    # the top level lists the subcommands without their handlers, and a
    # subcommand's help builds that one handler's parser
    loaded = _modules_after(_console(*argv), tmp_path)
    assert {m for m in loaded if m.startswith("cyarith.commands.")} == handlers
    assert not loaded & LIBRARY


def test_package_exports_resolve_on_first_access(tmp_path):
    import cyarith

    star: dict = {}
    exec("from cyarith import *", star)
    for name in cyarith.__all__:
        assert getattr(cyarith, name) is star[name]
    assert set(cyarith.__all__) <= set(dir(cyarith))
    assert {"cache", "cli", "zeta"} <= set(dir(cyarith))
    with pytest.raises(AttributeError, match="no_such_name"):
        cyarith.no_such_name
    loaded = _modules_after(
        "import sys, cyarith\n"
        "assert not any(m.startswith('cyarith.') for m in sys.modules)\n"
        "assert cyarith.zeta.local_factor_middle is cyarith.local_factor_middle\n"
        "assert cyarith.cache.FORMAT_VERSION == 4", tmp_path)
    assert "cyarith.hecke" not in loaded and "cyarith.cft" not in loaded
