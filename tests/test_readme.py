"""README's "Library use" block runs, and each of its command-line examples
exits 0, in a directory holding a copy of ``fixtures/``."""

from __future__ import annotations

import re
import shlex
import shutil
from pathlib import Path

import pytest
from click.testing import CliRunner

from pathlab.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _block_after(heading: str, language: str) -> str:
    """The first fenced ``language`` block after the line ``heading``."""
    tail = README.split(f"\n{heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", tail, re.DOTALL).group(1)


EXAMPLES = [
    line for line in _block_after("Examples:", "sh").splitlines() if line.startswith("pathlab ")
]


@pytest.fixture()
def in_fixture_copy(tmp_path, monkeypatch):
    shutil.copytree(ROOT / "fixtures", tmp_path / "fixtures")
    monkeypatch.chdir(tmp_path)


def test_the_examples_are_found():
    assert len(EXAMPLES) == 6


@pytest.mark.parametrize("line", EXAMPLES)
def test_a_command_line_example_exits_zero(line, in_fixture_copy):
    result = CliRunner().invoke(main, shlex.split(line)[1:])
    assert result.exit_code == 0, result.output


def test_the_library_use_block_runs(in_fixture_copy, capsys):
    exec(_block_after("## Library use", "python"), {})
    assert capsys.readouterr().out.endswith("1-3-6-8 (8)\n")
