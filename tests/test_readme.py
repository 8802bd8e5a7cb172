"""The README's library example and console sessions run against the
current code."""

import re
import shlex
from pathlib import Path

from tnkit.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_readme_console_blocks_match(tmp_path, monkeypatch, capsys):
    # every `$ tnkit ...` line, in README order, with the lines printed
    # under it up to the next command or the block's end
    sessions = []
    for block in re.findall(r"```\n(\$ tnkit .*?)```", README.read_text(),
                            re.S):
        for line in block.splitlines():
            if line.startswith("$ tnkit "):
                sessions.append((line[len("$ tnkit "):], []))
            else:
                sessions[-1][1].append(line)
    assert len(sessions) >= 5
    monkeypatch.chdir(tmp_path)
    for command, expected in sessions:
        capsys.readouterr()
        assert main(shlex.split(command)) == 0, command
        assert capsys.readouterr().out.splitlines() == expected, command
