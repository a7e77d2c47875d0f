"""The README's library example runs as a doctest, so the paper-facing API
it shows cannot drift from the code."""

import doctest
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted >= 8 and result.failed == 0
