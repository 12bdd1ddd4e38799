"""The README's examples run as written: the library example executes, and
every documented command line exits 0."""

import re
import shlex
from pathlib import Path

from sapforce import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def fenced_block(heading: str, language: str) -> str:
    """The first ``language`` code block after the ``## heading`` line."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_library_example_runs():
    exec(compile(fenced_block("Library example", "python"), "README.md", "exec"), {})


def test_command_line_examples_exit_zero(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # survey --out writes into the working directory
    lines = [shlex.split(ln, comments=True)
             for ln in fenced_block("Command line", "sh").splitlines()]
    commands = [words for words in lines if words]
    assert commands and all(words[0] == "sapforce" for words in commands)
    for words in commands:
        assert cli.main(words[1:]) == 0, (words, capsys.readouterr().err)
