"""Stdout of ``convert`` and ``dual`` on relabelled table files, byte for byte.

``table_golden.json`` holds the exit code, length and SHA-256 of what each
command printed on the products below (si:2 x chain:4 up to si:4 x chain:6,
each with its elements renamed by a seeded shuffle), captured before a table
file's laws were checked in its Birkhoff masks; the bytes stay those.
"""

import hashlib
import json
from pathlib import Path

import pytest

from palgebra import algebra_to_json_dict, build_chain, build_si, product
from palgebra.cli import main

from .test_cm_birkhoff import permuted

GOLDEN = json.loads((Path(__file__).parent / "table_golden.json").read_text(encoding="utf-8"))

FACTORS = {"si": build_si, "chain": build_chain}
PRODUCTS = [(("si", 2), ("chain", 4)), (("si", 2), ("si", 2)), (("si", 3), ("chain", 3)),
            (("si", 3), ("chain", 4)), (("si", 3), ("si", 2)), (("si", 3), ("chain", 7)),
            (("si", 3), ("si", 3)), (("si", 4), ("chain", 6))]


def file_name(factors) -> str:
    return "table-" + "x".join(f"{kind}{m}" for kind, m in factors) + ".json"


def table_doc(factors) -> dict:
    """The product's table document, elements renamed by a shuffle seeded
    with the file name."""
    (ka, ma), (kb, mb) = factors
    return algebra_to_json_dict(permuted(product(FACTORS[ka](ma), FACTORS[kb](mb)),
                                         file_name(factors)))


def commands():
    return [f"{command} {file_name(factors)}"
            for factors in PRODUCTS for command in ("convert", "dual")]


def printed(command: str, capsys) -> dict:
    """Exit code, stdout length and digest of ``palgebra command``, run in
    the directory that holds its file."""
    code = main(command.split())
    out = capsys.readouterr()
    assert out.err == ""
    data = out.out.encode()
    return {"exit": code, "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}


def test_golden_covers_every_command():
    assert sorted(GOLDEN) == sorted(commands())


@pytest.mark.parametrize("factors", PRODUCTS, ids=[file_name(f) for f in PRODUCTS])
def test_stdout_is_unchanged(factors, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / file_name(factors)).write_text(json.dumps(table_doc(factors)), encoding="utf-8")
    for command in ("convert", "dual"):
        key = f"{command} {file_name(factors)}"
        assert printed(key, capsys) == GOLDEN[key], key
