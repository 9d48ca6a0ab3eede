"""Every command in README's "Command line" block runs as documented."""

import re
import shlex
from pathlib import Path

import pytest

from calcverify.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def command_lines():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Command line\n+```sh\n(.*?)^```", text, re.M | re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("calcverify ")]


def test_the_block_is_found():
    assert len(command_lines()) >= 8


@pytest.mark.parametrize("line", command_lines())
def test_readme_command(line, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CALCVERIFY_CACHE", str(tmp_path / "cache.gausstab"))
    argv = shlex.split(line, comments=True)[1:]
    comment = line.partition("#")[2].strip()
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 0, err
    try:
        float(comment)
    except ValueError:
        return  # the comment is prose, not the expected output
    assert out == comment + "\n"
