"""The README's library example runs as a doctest, and every command of its
CLI block runs, so the paper-facing API it shows cannot drift from the code."""

import doctest
import re
from pathlib import Path

from cyarith.cli import run

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted >= 8 and result.failed == 0


def test_readme_cli_block_runs():
    # every `cyarith ...` line of the first code block under "## CLI" exits 0
    cli = README.read_text().split("\n## CLI\n", 1)[1]
    block = re.search(r"^```\w*\n(.*?)^```", cli, re.M | re.S)[1]
    commands = [line.split("#")[0].split()[1:] for line in block.splitlines()
                if line.startswith("cyarith ")]
    failed = [argv for argv in commands
              if run(argv + ["--deterministic", "--no-cache"]) != 0]
    assert commands and not failed
