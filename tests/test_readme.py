"""The README's examples run: the library quickstart executes, and every
``entrofun`` command line in it exits 0."""

import re
import shlex
from pathlib import Path

import pytest

from entrofun.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _code_blocks(lang: str) -> list[str]:
    return re.findall(rf"```{lang}\n(.*?)```", README, flags=re.S)


def _cli_examples() -> list[list[str]]:
    examples = []
    for block in _code_blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            line = line.split("#", 1)[0].strip()
            if line.startswith("entrofun "):
                examples.append(shlex.split(line)[1:])
    return examples


def test_library_quickstart_runs(capsys):
    (quickstart,) = [b for b in _code_blocks("python")
                     if "evaluate_asymptotic" in b]
    exec(compile(quickstart, "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_readme_has_cli_examples():
    commands = {argv[0] for argv in _cli_examples()}
    assert commands == {"eval", "compare", "sweep", "coeffs"}


@pytest.mark.parametrize("argv", _cli_examples(), ids=lambda a: " ".join(a))
def test_cli_example_exits_zero(capsys, argv):
    assert main(argv) == 0
    assert capsys.readouterr().out
