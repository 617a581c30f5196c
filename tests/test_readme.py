"""README's examples run as written.

The one ``python`` block is executed, and each ``umeb`` line of the
"Command line" block runs through ``cli.main`` in a fresh directory, in
order, with the exit code its text implies: 0 for every line except
``search w34.json --seed 7``, which finds no maximally entangled state in the
complement of the unextendible Weyl(3,4) basis (``none_found``, exit 1).
"""

import re
import shlex
from pathlib import Path

from umebkit.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def test_library_example_runs():
    (code,) = re.findall(r"^```python\n(.*?)^```$", README, flags=re.M | re.S)
    exec(compile(code, "README.md", "exec"), {})


def test_command_line_examples_exit_as_documented(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    section = README.split("\n## Command line\n", 1)[1]
    block = re.search(r"^```sh\n(.*?)^```$", section, flags=re.M | re.S).group(1)
    calls = [shlex.split(line, comments=True)[1:] for line in block.splitlines()
             if line.startswith("umeb ")]
    assert len(calls) == 9
    for argv in calls:
        want = 1 if argv == ["search", "w34.json", "--seed", "7"] else 0
        assert main(argv) == want, (argv, capsys.readouterr())
