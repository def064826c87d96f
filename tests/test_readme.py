"""The README's CLI examples, run through ``cli.main`` as they are shown."""

import pathlib
import re
import shlex

import pytest

from palgebra.cli import main

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block(after: str, lang: str) -> str:
    """The first fenced ``lang`` block that follows the text ``after``."""
    start = README.index(f"```{lang}\n", README.index(after)) + len(lang) + 4
    return README[start:README.index("```", start)]


def _examples() -> list[tuple[str, str | None, int]]:
    """(command line, shown stdout or None, exit code) per ``$ palgebra`` line."""
    out = []
    for chunk in re.split(r"^(?=\$ palgebra )", _block("Examples:", "sh"), flags=re.M):
        if not chunk.startswith("$ palgebra "):
            continue
        command, _, shown = chunk.partition("\n")
        code = re.search(r"#\s*exit (\d+)", command)
        shown = shown.rstrip("\n")
        out.append((command, shown + "\n" if shown else None,
                    int(code.group(1)) if code else 0))
    return out


def test_examples_block_is_read():
    assert len(_examples()) == 5


@pytest.mark.parametrize("command, shown, code", _examples(),
                         ids=[c.split()[2] for c, _, _ in _examples()])
def test_example(command, shown, code, capsys, monkeypatch, tmp_path):
    (tmp_path / "qb3.json").write_text(_block("Quasi-identity file format", "json"),
                                       encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    argv = shlex.split(command, comments=True)[2:]  # after "$ palgebra"
    assert main(argv) == code
    out = capsys.readouterr()
    if shown is not None:
        assert out.out == shown
