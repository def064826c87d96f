"""Stdout of ``convert`` and ``dual`` on built-in specs and upset files, byte
for byte, and the index data those documents hand to the writer.

``cli_golden.json`` holds the exit code, length and SHA-256 of what each
command printed on every built-in spec of the benchmark's ``structures``
workload and on three upset files (an N-shaped poset beside a chain and a
lone point, a two-point antichain and the empty poset), captured while
cover lists were still written as plain lists; the bytes stay those.
Every int list and table that ``si``, ``convert`` and ``dual`` print is
proved index data (``algebras._Indices``), which ``json_chunks`` writes
by its one int route.
"""

import hashlib
import json
from pathlib import Path

import pytest

from palgebra import algebras, chain_carrier, cli, si_carrier, to_table
from palgebra.algebras import proved_algebra_doc
from palgebra.cli import main

GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text(encoding="utf-8"))

SPECS = ([f"si:{n}" for n in range(1, 5)] + [f"chain:{m}" for m in range(3, 6)]
         + ["dist:2", "dist:3", "free:1,1", "free:2,1", "free:1,2", "free:2,2"])

UPSET_FILES = {
    "upset-n.json": {"kind": "upset", "labels": [f"p{i}" for i in range(7)],
                     "poset": {"size": 7, "covers": [[0, 2], [1, 2], [1, 3], [4, 5]]}},
    "upset-antichain.json": {"kind": "upset", "labels": ["a", "b"],
                             "poset": {"size": 2, "covers": []}},
    "upset-empty.json": {"kind": "upset", "labels": [], "poset": {"size": 0, "covers": []}},
}

COMMANDS = [f"{command} {spec}" for spec in SPECS + list(UPSET_FILES)
            for command in ("convert", "dual")]


@pytest.fixture
def upset_files(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, doc in UPSET_FILES.items():
        (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")


def printed(command: str, capsys) -> dict:
    code = main(command.split())
    out = capsys.readouterr()
    assert out.err == ""
    data = out.out.encode()
    return {"exit": code, "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}


def test_golden_covers_every_command():
    assert sorted(GOLDEN) == sorted(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_stdout_is_unchanged(command, upset_files, capsys):
    assert printed(command, capsys) == GOLDEN[command]


# ------------------------------------------------------------ proved data

def plain_int_data(doc, path="doc"):
    """Where doc holds a plain list or tuple with an int or a list in it:
    data the writer would have to take value by value."""
    if type(doc) is algebras._Indices:
        return []
    if isinstance(doc, dict):
        return [p for key, value in doc.items() for p in plain_int_data(value, f"{path}.{key}")]
    if isinstance(doc, (list, tuple)):
        if any(type(x) is int or isinstance(x, (list, tuple)) for x in doc):
            return [path]
        return [p for i, x in enumerate(doc) for p in plain_int_data(x, f"{path}[{i}]")]
    return []


@pytest.mark.parametrize("command", COMMANDS + ["si 0", "si 3", "convert chain:2"])
def test_index_data_is_proved(command, upset_files, monkeypatch, capsys):
    docs = []
    real = cli.json_chunks
    monkeypatch.setattr(cli, "json_chunks", lambda doc: docs.append(doc) or real(doc))
    assert main(command.split()) == 0
    capsys.readouterr()
    assert len(docs) == 1 and plain_int_data(docs[0]) == []


def test_algebra_dumps_data_is_proved():
    for A in (si_carrier(2), chain_carrier(4), to_table(si_carrier(2)),
              cli.load_algebra("free:1,2"), cli.load_algebra("dist:2")):
        assert plain_int_data(proved_algebra_doc(A)) == [], A
