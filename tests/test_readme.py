"""The README's library quick tour is a doctest and its command-line examples
run through cli.main, so neither can drift from the package."""

import doctest
import re
import shlex
from pathlib import Path

from macckit import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list[list[str]]:
    """Each `macckit ...` command of the README's sh blocks, as argv with
    backslash continuations joined and comments dropped."""
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["macckit"]:
                commands.append(argv)
    return commands


def test_readme_quick_tour_runs():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0  # the tour has prompts to run
    assert result.failed == 0


def test_readme_cli_examples_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.OUTPUT_DIR_ENV, raising=False)
    commands = readme_commands()
    assert commands  # the README has examples to run
    for argv in commands:
        assert cli.main(argv[1:]) == cli.EXIT_OK, argv
        outs = [argv[i + 1] for i, arg in enumerate(argv) if arg == "--out"]
        for out in outs:
            assert (tmp_path / out).is_file(), argv
