"""README's "Library quick start" block and its "Command line" examples run
as written, so the docs cannot name removed API, flags or defaults."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from aoilink.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def code_block(heading: str, language: str) -> str:
    section = README.read_text().split(f"## {heading}", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(rf"```{language}\n(.*?)```", section, re.S)
    return block


def cli_examples() -> list[list[str]]:
    """Each ``aoilink ...`` command of the "Command line" block, as argv."""
    lines = code_block("Command line", "bash").replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("aoilink ")]


def test_readme_quick_start_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code_block("Library quick start", "python"), str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    aoi, energy = map(float, lines[0].split())
    assert str(aoi).startswith("2.8086") and str(energy).startswith("6.4468")
    assert lines[1].startswith("SimResult(") and lines[2].startswith("SimResult(")
    # 100,000 slots in chunks of 65,536
    assert [line.split()[:2] for line in lines[3:]] == [["0", "65536"], ["65536", "34464"]]


def test_readme_lists_the_cli_examples():
    assert [argv[0] for argv in cli_examples()] == [
        "analytic", "analytic", "simulate", "sweep", "sweep", "sweep", "sweep", "validate"
    ]


@pytest.mark.parametrize("argv", cli_examples(), ids=lambda argv: " ".join(argv[:2]))
def test_readme_cli_example_runs(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(argv) == 0
    assert out.getvalue()
