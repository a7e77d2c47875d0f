"""What a process loads: the package resolves its names on first access, and
each CLI subcommand imports only the modules it runs.  Every check starts a
fresh interpreter, since this session has long since loaded everything."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def _modules_after(code: str, cwd: Path) -> set[str]:
    """sys.modules of a fresh interpreter that ran code."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    script = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", script], cwd=cwd, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def _cli(*argv: str) -> str:
    return f"from cyarith.cli import run\nassert run({list(argv)!r}) == 0"


@pytest.mark.parametrize("code, absent", [
    ("import cyarith.cli",
     {"cyarith.cache", "cyarith.zeta", "cyarith.hecke", "cyarith.cft", "numpy", "logging",
      "dataclasses", "inspect", "datetime", "csv"}),
    (_cli("count", "-d", "5", "-n", "3", "-p", "11"),
     {"cyarith.zeta", "cyarith.cache", "cyarith.hecke", "cyarith.cft", "numpy"}),
    (_cli("count", "--exponents", "3,3,3", "-p", "2..71", "-r", "2"),
     {"cyarith.zeta", "cyarith.cache", "cyarith.hecke", "cyarith.cft", "numpy"}),
    (_cli("jacobi", "-d", "5", "-n", "3", "-p", "11", "--orbits"),
     {"cyarith.hecke", "cyarith.zeta", "cyarith.cache", "cyarith.cft"}),
    (_cli("zeta", "-d", "5", "-n", "3", "-p", "2,3", "--no-cache", "--jobs", "1"),
     {"cyarith.hecke", "cyarith.cft", "numpy"}),
    (_cli("hecke", "-m", "5", "--a", "1,1,1,1", "--cutoff", "200"),
     {"cyarith.cache", "cyarith.cft", "hashlib", "numpy"}),
    (_cli("cft", "--spectrum", "--level", "40"),
     {"cyarith.zeta", "cyarith.cache", "cyarith.hecke", "numpy"}),
    (_cli("cft", "--fusion", "--level", "40"),
     {"cyarith.zeta", "cyarith.cache", "cyarith.hecke", "numpy"}),
    (_cli("cft", "--fusion-field", "--level", "40"),
     {"cyarith.zeta", "cyarith.cache", "cyarith.hecke", "numpy"}),
    (_cli("cft", "--check", "kr", "--level", "40"),
     {"cyarith.zeta", "cyarith.cache", "cyarith.hecke", "numpy"}),
], ids=["import", "count-quintic", "count", "jacobi", "zeta", "hecke", "cft-spectrum",
        "cft-fusion", "cft-fusion-field", "cft-check-kr"])
def test_a_subcommand_loads_only_what_it_runs(tmp_path, code, absent):
    loaded = _modules_after(code, tmp_path)
    assert "cyarith.cli" in loaded
    assert not loaded & absent


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
        "assert cyarith.cache.FORMAT_VERSION == 1", tmp_path)
    assert "cyarith.hecke" not in loaded and "cyarith.cft" not in loaded
