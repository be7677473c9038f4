"""The README's command-line examples, run as written.

Every ``$ codetuples ...`` line of README.md is run through ``cli.main`` in
a directory holding the files the examples name: ``alpha.ct`` and
``dist.txt`` from the README's own file-format blocks, and ``skew.txt``.
Its stdout must match the lines printed under the command, up to a ``...``
line where the README cuts an example short.
"""

import os
import shlex

import pytest

from codetuples.cli import main

README = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")


def _blocks():
    """The body of every fenced block of README.md, as lists of lines."""
    with open(README, encoding="utf-8") as handle:
        parts = handle.read().split("```")
    return [part.split("\n")[1:-1] for part in parts[1::2]]


def _examples():
    """(argv, expected stdout lines) per command, in README order."""
    out = []
    for block in _blocks():
        for line in block:
            if line.startswith("$ codetuples "):
                out.append((shlex.split(line)[2:], []))
            elif out and line and block[0].startswith("$ "):
                out[-1][1].append(line)
    return out


def _file_block(first_word):
    block = next(b for b in _blocks() if b[0].split()[0] == first_word)
    return "\n".join(block) + "\n"


EXAMPLES = _examples()


def test_the_readme_has_examples():
    verbs = [argv[0] for argv, _ in EXAMPLES]
    assert len(verbs) == 11
    assert {"classify", "transform", "search"} <= set(verbs)


@pytest.mark.parametrize("argv, expected", EXAMPLES,
                         ids=[" ".join(argv[:1] + argv[-2:])
                              for argv, _ in EXAMPLES])
def test_readme_example(argv, expected, tmp_path, monkeypatch, capsys):
    (tmp_path / "alpha.ct").write_text(_file_block("alphabet"),
                                       encoding="utf-8")
    (tmp_path / "dist.txt").write_text(_file_block("a"), encoding="utf-8")
    (tmp_path / "skew.txt").write_text("a 7/10\nb 3/10\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    rc = main(argv)
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0
    if expected[-1] == "...":
        expected = expected[:-1]
        lines = lines[:len(expected)]
    assert lines == expected
