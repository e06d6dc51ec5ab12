"""The README's library quick tour is a doctest, so it cannot drift from the API."""

import doctest
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_tour_runs():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0  # the tour has prompts to run
    assert result.failed == 0
